type t = {
  m : Machine.t;
  k : int; (* keys per node = fanout *)
  node_words : int; (* 2k: k keys then k child pointers *)
  n : int; (* indexed keys *)
  t_levels : int;
  bases : int array; (* bases.(l-1) = first word address of level l *)
  counts : int array; (* counts.(l-1) = nodes at level l *)
}

let ceil_div a b = (a + b - 1) / b

(* Nodes per level, root (index 0) to leaves. *)
let level_counts ~k n =
  let rec up acc m = if m <= 1 then m :: acc else up (m :: acc) (ceil_div m k) in
  let counts = up [] (max 1 (ceil_div n k)) in
  (* [up] stops once a level has a single node; if n <= k the leaf level is
     itself the root. *)
  let counts = match counts with 1 :: _ -> counts | _ -> 1 :: counts in
  Array.of_list counts

let default_keys_per_node m =
  let p = Machine.params m in
  p.Cachesim.Mem_params.l2_line / p.Cachesim.Mem_params.word_bytes / 2

let build ?keys_per_node m keys =
  Key.check_sorted_unique keys;
  let n = Array.length keys in
  if n = 0 then invalid_arg "Nary_tree.build: empty key set";
  let k = match keys_per_node with Some k -> k | None -> default_keys_per_node m in
  if k < 2 then invalid_arg "Nary_tree.build: keys_per_node must be >= 2";
  let node_words = 2 * k in
  let counts = level_counts ~k n in
  let t_levels = Array.length counts in
  let total_nodes = Array.fold_left ( + ) 0 counts in
  let base0 = Machine.alloc m (total_nodes * node_words) in
  let bases = Array.make t_levels base0 in
  for l = 1 to t_levels - 1 do
    bases.(l) <- bases.(l - 1) + (counts.(l - 1) * node_words)
  done;
  (* Fill leaves. *)
  let leaf_level = t_levels - 1 in
  let min_key = Array.make counts.(leaf_level) 0 in
  for j = 0 to counts.(leaf_level) - 1 do
    let node = bases.(leaf_level) + (j * node_words) in
    for i = 0 to k - 1 do
      let g = (j * k) + i in
      Machine.poke m (node + i) (if g < n then keys.(g) else Key.sentinel);
      Machine.poke m (node + k + i) 0
    done;
    min_key.(j) <- keys.(j * k)
  done;
  (* Fill interior levels bottom-up. *)
  let children_min = ref min_key in
  for l = leaf_level - 1 downto 0 do
    let mins = Array.make counts.(l) 0 in
    let n_children = counts.(l + 1) in
    for j = 0 to counts.(l) - 1 do
      let node = bases.(l) + (j * node_words) in
      let c0 = j * k in
      let c_last = min ((j + 1) * k) n_children - 1 in
      for t = 0 to k - 1 do
        let child = c0 + t in
        let sep =
          if child + 1 <= c_last then !children_min.(child + 1) else Key.sentinel
        in
        Machine.poke m (node + t) sep;
        let ptr =
          if child <= c_last then bases.(l + 1) + (child * node_words) else 0
        in
        Machine.poke m (node + k + t) ptr
      done;
      mins.(j) <- !children_min.(c0)
    done;
    children_min := mins
  done;
  { m; k; node_words; n; t_levels; bases; counts }

let retarget t m =
  let last = t.t_levels - 1 in
  let top = t.bases.(last) + (t.counts.(last) * t.node_words) in
  if Machine.words_allocated m < top then
    invalid_arg "Nary_tree.retarget: machine does not hold the tree";
  { t with m }

let machine t = t.m
let levels t = t.t_levels
let keys_per_node t = t.k
let node_words t = t.node_words
let root_addr t = t.bases.(0)

let check_level t l what =
  if l < 1 || l > t.t_levels then
    invalid_arg (Printf.sprintf "Nary_tree.%s: level %d outside [1,%d]" what l t.t_levels)

let level_base t l =
  check_level t l "level_base";
  t.bases.(l - 1)

let level_nodes t l =
  check_level t l "level_nodes";
  t.counts.(l - 1)

let info t =
  let p = Machine.params t.m in
  let nodes = Array.fold_left ( + ) 0 t.counts in
  {
    Layout_info.structure = "nary";
    n_keys = t.n;
    levels = t.t_levels;
    nodes;
    node_bytes = t.node_words * p.Cachesim.Mem_params.word_bytes;
    total_bytes = nodes * t.node_words * p.Cachesim.Mem_params.word_bytes;
    keys_per_node = t.k;
    fanout = t.k;
  }

(* One interior step: first slot with q < separator, then follow its
   pointer.  The sentinel padding guarantees the scan stops within the
   node.  The scans are top-level recursions with explicit arguments — a
   local [let rec] capturing the node address would allocate a closure
   per visited node without flambda. *)
let rec scan_sep_timed m addr q i =
  if q < Machine.read m (addr + i) then i else scan_sep_timed m addr q (i + 1)

let step_timed t addr q =
  let i = scan_sep_timed t.m addr q 0 in
  Machine.read t.m (addr + t.k + i)

let node_cost t = (Machine.params t.m).Cachesim.Mem_params.comp_cost_node_ns

let descend t ~addr ~steps q =
  let cost = node_cost t in
  let a = ref addr in
  for _ = 1 to steps do
    Machine.compute t.m cost;
    a := step_timed t !a q
  done;
  !a

let rec leaf_scan_timed m k addr q i =
  if i = k || q < Machine.read m (addr + i) then i
  else leaf_scan_timed m k addr q (i + 1)

let leaf_index t addr = (addr - t.bases.(t.t_levels - 1)) / t.node_words

let leaf_rank t ~addr q =
  Machine.compute t.m (node_cost t);
  let c = leaf_scan_timed t.m t.k addr q 0 in
  (leaf_index t addr * t.k) + c

let search t q =
  let addr = descend t ~addr:t.bases.(0) ~steps:(t.t_levels - 1) q in
  leaf_rank t ~addr q

let node_index t ~level ~addr =
  check_level t level "node_index";
  (addr - t.bases.(level - 1)) / t.node_words

let subtree_nodes t ~levels =
  let rec go acc width l = if l = 0 then acc else go (acc + width) (width * t.k) (l - 1) in
  go 0 1 levels
