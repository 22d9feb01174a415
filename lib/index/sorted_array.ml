type t = { m : Machine.t; base : int; len : int }

let build m keys =
  Key.check_sorted_unique keys;
  let len = Array.length keys in
  let base = Machine.alloc m len in
  Machine.poke_array m base keys;
  { m; base; len }

let retarget t m =
  if Machine.words_allocated m < t.base + t.len then
    invalid_arg "Sorted_array.retarget: machine does not hold the array";
  { t with m }

let size_bytes t = t.len * (Machine.params t.m).Cachesim.Mem_params.word_bytes

let search t q =
  let probe_cost = (Machine.params t.m).Cachesim.Mem_params.comp_cost_probe_ns in
  let lo = ref 0 and hi = ref t.len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    Machine.compute t.m probe_cost;
    if Machine.read t.m (t.base + mid) <= q then lo := mid + 1 else hi := mid
  done;
  !lo

let search_untimed t q =
  let lo = ref 0 and hi = ref t.len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Machine.peek t.m (t.base + mid) <= q then lo := mid + 1 else hi := mid
  done;
  !lo
