let key_space = Index.Key.sentinel

(* LSD radix sort of keys in [\[0, 2^30)]: two stable counting passes
   over 15-bit digits, low digit first. *)
let digit_bits = 15
let digit_mask = (1 lsl digit_bits) - 1

let radix_sort (a : int array) =
  let n = Array.length a in
  let tmp = Array.make n 0 in
  let count = Array.make (1 lsl digit_bits) 0 in
  let pass (src : int array) (dst : int array) shift =
    Array.fill count 0 (Array.length count) 0;
    for i = 0 to n - 1 do
      let d = (src.(i) lsr shift) land digit_mask in
      count.(d) <- count.(d) + 1
    done;
    let sum = ref 0 in
    for d = 0 to digit_mask do
      let c = count.(d) in
      count.(d) <- !sum;
      sum := !sum + c
    done;
    for i = 0 to n - 1 do
      let k = src.(i) in
      let d = (k lsr shift) land digit_mask in
      dst.(count.(d)) <- k;
      count.(d) <- count.(d) + 1
    done
  in
  pass a tmp 0;
  pass tmp a digit_bits

(* The first [n] distinct draws, deduplicated through an open-addressed
   table of 4-byte slots, [k + 1] or 0 when empty, at most 5/8 full. *)
let index_keys g ~n =
  if n < 1 then invalid_arg "Keygen.index_keys: n must be >= 1";
  if n > key_space / 2 then invalid_arg "Keygen.index_keys: n too large";
  let bits = ref 1 in
  while 5 lsl !bits < 8 * n do
    incr bits
  done;
  let mask = (1 lsl !bits) - 1 in
  let table = Bytes.make (4 lsl !bits) '\000' in
  let slot_at i = Int32.to_int (Bytes.get_int32_ne table (4 * i)) in
  let out = Array.make n 0 in
  let filled = ref 0 in
  while !filled < n do
    let k = Prng.Splitmix.int g key_space in
    (* Multiplicative hashing: the top [bits] of the 63-bit product. *)
    let slot = ref ((k * 0x2545F4914F6CDD1D) lsr (63 - !bits)) in
    while slot_at !slot <> k + 1 && slot_at !slot <> 0 do
      slot := (!slot + 1) land mask
    done;
    if slot_at !slot = 0 then begin
      Bytes.set_int32_ne table (4 * !slot) (Int32.of_int (k + 1));
      out.(!filled) <- k;
      incr filled
    end
  done;
  radix_sort out;
  out

let uniform_queries g ~n =
  if n < 0 then invalid_arg "Keygen.uniform_queries: negative n";
  Array.init n (fun _ -> Prng.Splitmix.int g key_space)

let member_queries g ~keys ~n =
  let m = Array.length keys in
  if m = 0 then invalid_arg "Keygen.member_queries: empty key set";
  Array.init n (fun _ -> keys.(Prng.Splitmix.int g m))

let zipf_queries g ~keys ~n ~s =
  let m = Array.length keys in
  if m = 0 then invalid_arg "Keygen.zipf_queries: empty key set";
  (* Shuffle a copy so Zipf rank 0 (the hottest key) is a random key, not
     the smallest: otherwise all hot traffic would land on partition 0. *)
  let shuffled = Array.copy keys in
  Prng.Splitmix.shuffle g shuffled;
  let z = Prng.Zipf.create ~n:m ~s in
  Array.init n (fun _ -> shuffled.(Prng.Zipf.sample z g))

let sorted_queries g ~n =
  let qs = uniform_queries g ~n in
  radix_sort qs;
  qs
