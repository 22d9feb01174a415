type t = {
  last_lines : int array; (* last line observed per stream; -2 = idle *)
  pending : bool array; (* stream holds an unconsumed next-line prediction *)
  mutable victim : int; (* round-robin replacement cursor *)
  mutable seq : int;
  mutable rand : int;
  mutable fills : int;
  mutable useful : int;
  mutable useless : int;
}

let create ?(streams = 16) () =
  if streams < 1 then invalid_arg "Prefetcher.create: streams must be >= 1";
  {
    last_lines = Array.make streams (-2);
    pending = Array.make streams false;
    victim = 0;
    seq = 0;
    rand = 0;
    fills = 0;
    useful = 0;
    useless = 0;
  }

(* Top-level recursion with explicit arguments: a local [let rec]
   capturing [t]/[line] would allocate a closure on every L2 miss
   without flambda.  The [int] annotations matter too: unannotated, the
   [=] below is a polymorphic [caml_equal] call per stream, up to 16 on
   every L2 miss. *)
let rec find_stream (last_lines : int array) (prev : int) i =
  if i = Array.length last_lines then -1
  else if Array.unsafe_get last_lines i = prev then i
  else find_stream last_lines prev (i + 1)

(* Prediction accounting is purely observational: every live stream at
   line [l] holds one outstanding prediction of [l + 1].  A demand miss
   that extends the stream consumed it (useful) and issues the next
   one; a stream replaced with its prediction unconsumed retires it as
   useless.  None of this feeds back into classification or cost, so
   demand hit/miss statistics stay unpolluted. *)
let note_miss t ~line =
  let n = Array.length t.last_lines in
  match find_stream t.last_lines (line - 1) 0 with
  | i when i >= 0 ->
      t.last_lines.(i) <- line;
      if t.pending.(i) then t.useful <- t.useful + 1;
      t.pending.(i) <- true;
      t.fills <- t.fills + 1;
      t.seq <- t.seq + 1;
      true
  | _ ->
      if t.last_lines.(t.victim) <> -2 && t.pending.(t.victim) then
        t.useless <- t.useless + 1;
      t.last_lines.(t.victim) <- line;
      t.pending.(t.victim) <- true;
      t.fills <- t.fills + 1;
      t.victim <- (t.victim + 1) mod n;
      t.rand <- t.rand + 1;
      false

let reset t =
  (* Dropping the stream table retires its live predictions unconsumed;
     the cumulative prediction counters survive (the classification
     counters reset with the table, as before). *)
  Array.iteri
    (fun i last ->
      if last <> -2 && t.pending.(i) then t.useless <- t.useless + 1)
    t.last_lines;
  Array.fill t.last_lines 0 (Array.length t.last_lines) (-2);
  Array.fill t.pending 0 (Array.length t.pending) false;
  t.victim <- 0;
  t.seq <- 0;
  t.rand <- 0

let sequential_hits t = t.seq
let random_misses t = t.rand
let fills t = t.fills
let useful t = t.useful
let useless t = t.useless
