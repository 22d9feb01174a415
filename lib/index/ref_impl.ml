(* The int annotations matter: unannotated, the [<=] below compiles to a
   polymorphic comparison call per probe step. *)
let rank_prefix (keys : int array) (len : int) (q : int) =
  let lo = ref 0 and hi = ref len in
  (* invariant: keys.(i) <= q for i < lo; keys.(i) > q for i >= hi *)
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if keys.(mid) <= q then lo := mid + 1 else hi := mid
  done;
  !lo

let rank keys q = rank_prefix keys (Array.length keys) q

(* Bulk oracle.  Each query in [0, 2^30) is packed with its index as
   [q lsl 32 lor i]; a two-pass LSD radix sort, 15 bits of [q] a pass,
   orders the packed words by query, and one merge over [keys] then
   hands every query its rank.  That is O(n + |keys|) where one [rank]
   each is O(n log |keys|) of cache-missing probes.  A query outside
   [0, 2^30), or 2^32 queries or more, takes the per-query path. *)
let digit_bits = 15
let digit_mask = (1 lsl digit_bits) - 1
let index_mask = (1 lsl 32) - 1

let rec packable (qs : int array) i =
  i = Array.length qs
  || (let q = Array.unsafe_get qs i in
      q >= 0 && q lsr (2 * digit_bits) = 0 && packable qs (i + 1))

(* One stable counting pass from [src] to [dst] on the digit at bit
   [shift]; [count] has [2^digit_bits + 1] slots. *)
let radix_pass (src : int array) (dst : int array) (count : int array) shift =
  Array.fill count 0 (Array.length count) 0;
  Array.iter
    (fun x ->
      let d = ((x lsr shift) land digit_mask) + 1 in
      count.(d) <- count.(d) + 1)
    src;
  for d = 1 to digit_mask do
    count.(d) <- count.(d) + count.(d - 1)
  done;
  Array.iter
    (fun x ->
      let d = (x lsr shift) land digit_mask in
      dst.(count.(d)) <- x;
      count.(d) <- count.(d) + 1)
    src

let ranks (keys : int array) (qs : int array) =
  let n = Array.length qs in
  if n lsr 32 <> 0 || not (packable qs 0) then Array.map (rank keys) qs
  else begin
    let a = Array.make n 0 and b = Array.make n 0 in
    for i = 0 to n - 1 do
      a.(i) <- (qs.(i) lsl 32) lor i
    done;
    let count = Array.make (digit_mask + 2) 0 in
    radix_pass a b count 32;
    radix_pass b a count (32 + digit_bits);
    (* [a] is sorted by query; [b] is free to take the ranks. *)
    let nk = Array.length keys and j = ref 0 in
    Array.iter
      (fun x ->
        let q = x lsr 32 in
        while !j < nk && keys.(!j) <= q do
          incr j
        done;
        b.(x land index_mask) <- !j)
      a;
    b
  end

let partition_of ~delimiters q = rank delimiters q

(* Dynamic oracle: a blocked sorted array.  Each block holds a sorted run
   of at most [block_capacity] keys and owns the key range from its fence
   up to the next block's; [before] counts the live keys of all earlier
   blocks, so a rank is one search over the fences plus one inside a
   block.  An update shifts at most one block and bumps the later blocks'
   [before]; a full block re-cuts the whole oracle into half-full blocks.
   The shifts are explicit loops over [int array]s: [Array.blit] on a
   major-heap array pays a write barrier per word. *)
module Dyn = struct
  let block_capacity = 1024
  let cut_fill = block_capacity / 2

  type t = {
    mutable fences : int array;
        (* least key block [b] owns; [fences.(0) = min_int] *)
    mutable blocks : int array array;  (* live prefix of [counts.(b)] keys *)
    mutable counts : int array;
    mutable before : int array;  (* live keys in blocks [0, b) *)
  }

  (* Lay sorted keys out in half-full blocks. *)
  let cut t keys =
    let n = Array.length keys in
    let nb = max 1 ((n + cut_fill - 1) / cut_fill) in
    t.fences <-
      Array.init nb (fun b -> if b = 0 then min_int else keys.(b * cut_fill));
    t.counts <- Array.init nb (fun b -> min cut_fill (n - (b * cut_fill)));
    t.before <- Array.init nb (fun b -> b * cut_fill);
    t.blocks <-
      Array.init nb (fun b ->
          let blk = Array.make block_capacity 0 in
          for i = 0 to t.counts.(b) - 1 do
            blk.(i) <- keys.((b * cut_fill) + i)
          done;
          blk)

  let size t =
    let last = Array.length t.counts - 1 in
    t.before.(last) + t.counts.(last)

  let to_sorted_array t =
    let out = Array.make (size t) 0 in
    Array.iteri
      (fun b blk ->
        for i = 0 to t.counts.(b) - 1 do
          out.(t.before.(b) + i) <- blk.(i)
        done)
      t.blocks;
    out

  let create keys =
    Key.check_sorted_unique keys;
    let t = { fences = [||]; blocks = [||]; counts = [||]; before = [||] } in
    cut t keys;
    t

  (* The block owning [q], and the number of its live keys [<= q]. *)
  let block_of t q = rank t.fences q - 1
  let pos t b q = rank_prefix t.blocks.(b) t.counts.(b) q
  let present t b p k = p > 0 && t.blocks.(b).(p - 1) = k

  let rank t q =
    let b = block_of t q in
    t.before.(b) + pos t b q

  let mem t k =
    let b = block_of t k in
    present t b (pos t b k) k

  let shift_before t b d =
    for i = b + 1 to Array.length t.before - 1 do
      t.before.(i) <- t.before.(i) + d
    done

  let rec insert t k =
    let b = block_of t k in
    let p = pos t b k in
    let blk = t.blocks.(b) and c = t.counts.(b) in
    if present t b p k then false
    else if c = block_capacity then begin
      cut t (to_sorted_array t);
      insert t k
    end
    else begin
      for i = c downto p + 1 do
        blk.(i) <- blk.(i - 1)
      done;
      blk.(p) <- k;
      t.counts.(b) <- c + 1;
      shift_before t b 1;
      true
    end

  let delete t k =
    let b = block_of t k in
    let p = pos t b k in
    let blk = t.blocks.(b) and c = t.counts.(b) in
    if not (present t b p k) then false
    else begin
      for i = p - 1 to c - 2 do
        blk.(i) <- blk.(i + 1)
      done;
      t.counts.(b) <- c - 1;
      shift_before t b (-1);
      true
    end
end
