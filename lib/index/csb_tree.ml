type t = {
  m : Machine.t;
  k : int; (* separators per node *)
  f : int; (* fanout = k + 1 *)
  nw : int; (* node words = k + 1 (keys then first-child pointer) *)
  n : int;
  t_levels : int;
  bases : int array;
  counts : int array;
}

let ceil_div a b = (a + b - 1) / b

let level_counts ~leaf_k ~fanout n =
  let rec up acc m = if m <= 1 then m :: acc else up (m :: acc) (ceil_div m fanout) in
  Array.of_list (up [] (max 1 (ceil_div n leaf_k)))

let build ?node_words m keys =
  Key.check_sorted_unique keys;
  let n = Array.length keys in
  if n = 0 then invalid_arg "Csb_tree.build: empty key set";
  let nw =
    match node_words with
    | Some w -> w
    | None ->
        let p = Machine.params m in
        p.Cachesim.Mem_params.l2_line / p.Cachesim.Mem_params.word_bytes
  in
  if nw < 3 then invalid_arg "Csb_tree.build: node_words must be >= 3";
  let k = nw - 1 in
  let f = k + 1 in
  let counts = level_counts ~leaf_k:k ~fanout:f n in
  let t_levels = Array.length counts in
  let total_nodes = Array.fold_left ( + ) 0 counts in
  let base0 = Machine.alloc m (total_nodes * nw) in
  let bases = Array.make t_levels base0 in
  for l = 1 to t_levels - 1 do
    bases.(l) <- bases.(l - 1) + (counts.(l - 1) * nw)
  done;
  let leaf_level = t_levels - 1 in
  let min_key = Array.make counts.(leaf_level) 0 in
  for j = 0 to counts.(leaf_level) - 1 do
    let node = bases.(leaf_level) + (j * nw) in
    for i = 0 to k - 1 do
      let g = (j * k) + i in
      Machine.poke m (node + i) (if g < n then keys.(g) else Key.sentinel)
    done;
    Machine.poke m (node + k) 0;
    min_key.(j) <- keys.(j * k)
  done;
  let children_min = ref min_key in
  for l = leaf_level - 1 downto 0 do
    let mins = Array.make counts.(l) 0 in
    let n_children = counts.(l + 1) in
    for j = 0 to counts.(l) - 1 do
      let node = bases.(l) + (j * nw) in
      let c0 = j * f in
      let c_last = min ((j + 1) * f) n_children - 1 in
      for t = 0 to k - 1 do
        let sep =
          if c0 + t + 1 <= c_last then !children_min.(c0 + t + 1) else Key.sentinel
        in
        Machine.poke m (node + t) sep
      done;
      Machine.poke m (node + k) (bases.(l + 1) + (c0 * nw));
      mins.(j) <- !children_min.(c0)
    done;
    children_min := mins
  done;
  { m; k; f; nw; n; t_levels; bases; counts }

let retarget t m =
  let last = t.t_levels - 1 in
  let top = t.bases.(last) + (t.counts.(last) * t.nw) in
  if Machine.words_allocated m < top then
    invalid_arg "Csb_tree.retarget: machine does not hold the tree";
  { t with m }

let levels t = t.t_levels
let keys_per_node t = t.k
let fanout t = t.f
let node_words t = t.nw

let info t =
  let p = Machine.params t.m in
  let nodes = Array.fold_left ( + ) 0 t.counts in
  {
    Layout_info.structure = "csb+";
    n_keys = t.n;
    levels = t.t_levels;
    nodes;
    node_bytes = t.nw * p.Cachesim.Mem_params.word_bytes;
    total_bytes = nodes * t.nw * p.Cachesim.Mem_params.word_bytes;
    keys_per_node = t.k;
    fanout = t.f;
  }

(* Child slot (interior node) and leaf count (leaf): the first i with
   q < key_i.  A full node has no sentinel, in which case the scan runs
   off the k keys and lands on slot k, i.e. the last child.  The scan is
   a top-level, int-typed recursion with explicit arguments: a local
   [let rec] would allocate a closure per visited node without flambda,
   and a [read] parameter left [<] polymorphic, one [caml_lessthan] call
   per key compared. *)
let rec scan_timed m k addr (q : int) i =
  if i = k || q < Machine.read m (addr + i) then i
  else scan_timed m k addr q (i + 1)

let node_cost t = (Machine.params t.m).Cachesim.Mem_params.comp_cost_node_ns
let leaf_index t addr = (addr - t.bases.(t.t_levels - 1)) / t.nw

let search t q =
  let a = ref t.bases.(0) in
  for _ = 1 to t.t_levels - 1 do
    Machine.compute t.m (node_cost t);
    let i = scan_timed t.m t.k !a q 0 in
    let first_child = Machine.read t.m (!a + t.k) in
    a := first_child + (i * t.nw)
  done;
  Machine.compute t.m (node_cost t);
  (leaf_index t !a * t.k) + scan_timed t.m t.k !a q 0
