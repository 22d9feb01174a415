type buf = { base : int; cap : int; mutable len : int }

type group = { top : int; span : int }

type t = {
  tr : Nary_tree.t;
  m : Machine.t;
  grps : group array;
  bufs : buf array array; (* bufs.(g) for g >= 1; bufs.(0) = [||] *)
  mutable flushes : int;
  total_buffer_words : int;
}

let plan_groups tr ~budget_bytes =
  let p = Machine.params (Nary_tree.machine tr) in
  let node_bytes = Nary_tree.node_words tr * p.Cachesim.Mem_params.word_bytes in
  let levels = Nary_tree.levels tr in
  let fits s = Nary_tree.subtree_nodes tr ~levels:s * node_bytes <= budget_bytes in
  let span_max =
    let rec widest s = if s < levels && fits (s + 1) then widest (s + 1) else s in
    if fits 1 then widest 1 else 1
  in
  (* Cut level groups bottom-up so that every group except possibly the
     topmost spans the full cache-resident height. *)
  let rec cut rem acc =
    if rem = 0 then acc
    else
      let s = min span_max rem in
      cut (rem - s) ({ top = rem - s + 1; span = s } :: acc)
  in
  (* [cut] pushes deepest groups first, so the accumulator comes out
     top-group-first already. *)
  Array.of_list (cut levels [])

let create ?budget_bytes ?(max_batch = 65536) tr =
  let m = Nary_tree.machine tr in
  let p = Machine.params m in
  let budget =
    match budget_bytes with
    | Some b -> b
    | None -> p.Cachesim.Mem_params.l2_size / 2
  in
  if budget <= 0 then invalid_arg "Buffered.create: bad budget";
  if max_batch < 1 then invalid_arg "Buffered.create: bad max_batch";
  let grps = plan_groups tr ~budget_bytes:budget in
  let total = ref 0 in
  let bufs =
    Array.mapi
      (fun g grp ->
        if g = 0 then [||]
        else begin
          let count = Nary_tree.level_nodes tr grp.top in
          let cap = min max_batch (max 16 (4 * max_batch / count)) in
          Array.init count (fun _ ->
              let base = Machine.alloc m (2 * cap) in
              total := !total + (2 * cap);
              { base; cap; len = 0 })
        end)
      grps
  in
  { tr; m; grps; bufs; flushes = 0; total_buffer_words = !total }

let retarget t m =
  {
    t with
    tr = Nary_tree.retarget t.tr m;
    m;
    bufs = Array.map (Array.map (fun b -> { b with len = 0 })) t.bufs;
    flushes = 0;
  }

let tree t = t.tr
let groups t = Array.length t.grps
let group_levels t = Array.map (fun g -> g.span) t.grps

let buffer_bytes t =
  t.total_buffer_words * (Machine.params t.m).Cachesim.Mem_params.word_bytes

let overflow_flushes t = t.flushes

let root_of t g idx =
  Nary_tree.level_base t.tr t.grps.(g).top + (idx * Nary_tree.node_words t.tr)

(* Push one (key, qid) through group [g] starting at subtree root [root]:
   either all the way to a leaf (last group) or into the buffer of the
   next group's subtree. *)
let rec route t g root key qid ~results =
  let grp = t.grps.(g) in
  if g = Array.length t.grps - 1 then begin
    let leaf = Nary_tree.descend t.tr ~addr:root ~steps:(grp.span - 1) key in
    let rank = Nary_tree.leaf_rank t.tr ~addr:leaf key in
    Machine.write t.m (results + qid) rank
  end
  else begin
    let node = Nary_tree.descend t.tr ~addr:root ~steps:grp.span key in
    let idx = Nary_tree.node_index t.tr ~level:t.grps.(g + 1).top ~addr:node in
    append t (g + 1) idx key qid ~results
  end

and append t g idx key qid ~results =
  let b = t.bufs.(g).(idx) in
  if b.len = b.cap then begin
    t.flushes <- t.flushes + 1;
    drain t g idx ~results
  end;
  Machine.write t.m (b.base + (2 * b.len)) key;
  Machine.write t.m (b.base + (2 * b.len) + 1) qid;
  b.len <- b.len + 1

and drain t g idx ~results =
  let b = t.bufs.(g).(idx) in
  let n = b.len in
  b.len <- 0;
  let root = root_of t g idx in
  for e = 0 to n - 1 do
    let key = Machine.read t.m (b.base + (2 * e)) in
    let qid = Machine.read t.m (b.base + (2 * e) + 1) in
    route t g root key qid ~results
  done

let process_batch t ~queries ~results ~n =
  let root = Nary_tree.root_addr t.tr in
  for i = 0 to n - 1 do
    let key = Machine.read t.m (queries + i) in
    route t 0 root key i ~results
  done;
  for g = 1 to Array.length t.grps - 1 do
    for idx = 0 to Array.length t.bufs.(g) - 1 do
      drain t g idx ~results
    done
  done
