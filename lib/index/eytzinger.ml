(* Slots are 1-indexed BFS positions; slot i lives at words
   [base + 2(i-1)] (key) and [base + 2(i-1) + 1] (rank of that key in
   sorted order, which for a strictly-increasing build is simply the
   key's position).  Slot 0 is unused. *)

type t = { m : Machine.t; base : int; len : int; height : int }

let build m keys =
  Key.check_sorted_unique keys;
  let n = Array.length keys in
  if n = 0 then invalid_arg "Eytzinger.build: empty key set";
  let base = Machine.alloc m (2 * n) in
  (* In-order traversal of the BFS positions assigns sorted keys to
     slots. *)
  let next = ref 0 in
  let rec fill i =
    if i <= n then begin
      fill (2 * i);
      Machine.poke m (base + (2 * (i - 1))) keys.(!next);
      Machine.poke m (base + (2 * (i - 1)) + 1) !next;
      incr next;
      fill ((2 * i) + 1)
    end
  in
  fill 1;
  let height =
    let rec go h cap = if cap >= n then h else go (h + 1) ((2 * cap) + 1) in
    go 1 1
  in
  { m; base; len = n; height }

let levels t = t.height

let size_bytes t =
  2 * t.len * (Machine.params t.m).Cachesim.Mem_params.word_bytes

let search_gen ~read ~compute t q =
  (* Track the BFS slot of the last key <= q; its stored rank + 1 is the
     answer. *)
  let best = ref 0 in
  let i = ref 1 in
  while !i <= t.len do
    compute ();
    let v = read (t.base + (2 * (!i - 1))) in
    if v <= q then begin
      best := !i;
      i := (2 * !i) + 1
    end
    else i := 2 * !i
  done;
  if !best = 0 then 0 else read (t.base + (2 * (!best - 1)) + 1) + 1

let search t q =
  let probe = (Machine.params t.m).Cachesim.Mem_params.comp_cost_probe_ns in
  search_gen ~read:(Machine.read t.m) ~compute:(fun () -> Machine.compute t.m probe) t q

let search_untimed t q =
  search_gen ~read:(Machine.peek t.m) ~compute:(fun () -> ()) t q
