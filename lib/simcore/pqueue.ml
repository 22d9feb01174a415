(* Array-backed 4-ary min-heap on the composite key (time, seq).

   Times are stored as order-preserving unboxed int keys (see
   [key_of_time]), so the hot push/pop path touches only int and payload
   arrays — no float boxing, no per-event tuple.  Three parallel arrays
   (keys, seqs, payloads) avoid allocating a record per event; [dummy]
   fills unused payload slots so the GC does not retain popped elements.

   The arity-4 layout halves the sift depth of a binary heap and keeps
   each sift level's child scan inside one or two cache lines of the key
   array.  Sifting moves a hole instead of swapping: each level is one
   triple-read and one triple-write, and the inserted element is written
   exactly once.

   Pop order is observably identical to any correct heap on the same
   comparator: (time, seq) is a total order (the engine never reuses a
   seq), so elements leave in exactly sorted order regardless of arity
   or sifting strategy. *)

type 'a t = {
  mutable keys : int array;
  mutable seqs : int array;
  mutable data : 'a array;
  mutable size : int;
  mutable dummy : 'a option; (* first pushed element, used to blank slots *)
}

(* Order-preserving bijection from nonnegative floats (the engine only
   schedules at [time >= now >= 0]) onto ints.  IEEE-754 bit patterns of
   nonnegative floats compare like the floats themselves; on a 63-bit
   OCaml int the top bit of the 64-bit pattern is always clear for the
   magnitudes a simulation can reach, and [Int64.to_int] keeps the low
   63 bits, so flipping the (63-bit) sign bit with [lxor min_int] yields
   a monotone, exactly invertible int key.  [+. 0.0] normalises a
   [-0.0] input to [+0.0] so numerically equal times get equal keys. *)
let key_of_time time =
  Int64.to_int (Int64.bits_of_float (time +. 0.0)) lxor min_int

let time_of_key key =
  Int64.float_of_bits (Int64.logand (Int64.of_int (key lxor min_int)) Int64.max_int)

let initial_capacity = 64

let create () =
  {
    keys = Array.make initial_capacity 0;
    seqs = Array.make initial_capacity 0;
    data = [||];
    size = 0;
    dummy = None;
  }

let length q = q.size
let is_empty q = q.size = 0

(* Unsafe accesses below stay in bounds: every index is either [< size]
   (heap slots) or the freshly grown slot [size] itself, and [grow]
   keeps [size < Array.length keys = Array.length seqs = Array.length
   data] before each insertion. *)

let grow q x =
  let capacity = Array.length q.keys in
  if q.size = capacity then begin
    let capacity' = 2 * capacity in
    let keys' = Array.make capacity' 0 in
    let seqs' = Array.make capacity' 0 in
    let data' = Array.make capacity' x in
    Array.blit q.keys 0 keys' 0 q.size;
    Array.blit q.seqs 0 seqs' 0 q.size;
    Array.blit q.data 0 data' 0 q.size;
    q.keys <- keys';
    q.seqs <- seqs';
    q.data <- data'
  end

(* All sift helpers are top-level recursions with explicit arguments: a
   local [let rec] capturing the queue would allocate a closure on every
   push/pop without flambda. *)

(* Sift the hole up from slot [i]: parents larger than (key, seq) move
   down one level each; returns the slot where the new element lands. *)
let rec sift_hole_up q key seq i =
  if i = 0 then 0
  else begin
    let p = (i - 1) lsr 2 in
    let pk = Array.unsafe_get q.keys p in
    if pk > key || (pk = key && Array.unsafe_get q.seqs p > seq) then begin
      Array.unsafe_set q.keys i pk;
      Array.unsafe_set q.seqs i (Array.unsafe_get q.seqs p);
      Array.unsafe_set q.data i (Array.unsafe_get q.data p);
      sift_hole_up q key seq p
    end
    else i
  end

let push q ~time ~seq x =
  (* [Array.length]: a polymorphic [q.data = [||]] would be a
     [caml_equal] call on every push. *)
  if Array.length q.data = 0 then begin
    (* First element ever: materialise the payload array now that we have a
       value of type ['a] to fill it with. *)
    q.data <- Array.make (Array.length q.keys) x;
    q.dummy <- Some x
  end;
  grow q x;
  let key = key_of_time time in
  let i = sift_hole_up q key seq q.size in
  q.size <- q.size + 1;
  Array.unsafe_set q.keys i key;
  Array.unsafe_set q.seqs i seq;
  Array.unsafe_set q.data i x

let top_time q =
  if q.size = 0 then invalid_arg "Pqueue.top_time: empty queue";
  time_of_key (Array.unsafe_get q.keys 0)

(* Index (in [0, n)) of the smallest of the up-to-four children starting
   at [c0]; [c0 < n]. *)
let rec min_child_scan q stop best bk bs c =
  if c = stop then best
  else begin
    let ck = Array.unsafe_get q.keys c in
    if ck < bk || (ck = bk && Array.unsafe_get q.seqs c < bs) then
      min_child_scan q stop c ck (Array.unsafe_get q.seqs c) (c + 1)
    else min_child_scan q stop best bk bs (c + 1)
  end

let min_child q ~n c0 =
  let stop = if c0 + 4 < n then c0 + 4 else n in
  min_child_scan q stop c0
    (Array.unsafe_get q.keys c0)
    (Array.unsafe_get q.seqs c0)
    (c0 + 1)

(* Reinsert the element with key (lk, ls) through the hole at [i]:
   smaller children move up until it fits; returns the landing slot. *)
let rec sift_hole_down q n lk ls i =
  let c0 = (i lsl 2) + 1 in
  if c0 >= n then i
  else begin
    let c = min_child q ~n c0 in
    let ck = Array.unsafe_get q.keys c in
    if ck < lk || (ck = lk && Array.unsafe_get q.seqs c < ls) then begin
      Array.unsafe_set q.keys i ck;
      Array.unsafe_set q.seqs i (Array.unsafe_get q.seqs c);
      Array.unsafe_set q.data i (Array.unsafe_get q.data c);
      sift_hole_down q n lk ls c
    end
    else i
  end

let pop_payload q =
  if q.size = 0 then invalid_arg "Pqueue.pop_payload: empty queue";
  let x = Array.unsafe_get q.data 0 in
  let n = q.size - 1 in
  q.size <- n;
  if n = 0 then begin
    (match q.dummy with
    | Some d -> Array.unsafe_set q.data 0 d
    | None -> ())
  end
  else begin
    (* Reinsert the last element through the hole left at the root:
       smaller children move up until the last element fits. *)
    let lk = Array.unsafe_get q.keys n in
    let ls = Array.unsafe_get q.seqs n in
    let lx = Array.unsafe_get q.data n in
    (match q.dummy with
    | Some d -> Array.unsafe_set q.data n d
    | None -> ());
    let i = sift_hole_down q n lk ls 0 in
    Array.unsafe_set q.keys i lk;
    Array.unsafe_set q.seqs i ls;
    Array.unsafe_set q.data i lx
  end;
  x

let pop q =
  if q.size = 0 then None
  else begin
    let time = time_of_key (Array.unsafe_get q.keys 0) in
    let seq = Array.unsafe_get q.seqs 0 in
    let x = pop_payload q in
    Some (time, seq, x)
  end

let peek_time q = if q.size = 0 then None else Some (top_time q)

let clear q =
  (match q.dummy with
  | Some d -> Array.fill q.data 0 q.size d
  | None -> ());
  q.size <- 0
