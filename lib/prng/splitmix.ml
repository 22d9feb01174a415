(* SplitMix64: state advances by the golden-gamma constant; outputs are the
   state passed through a 64-bit variant of the MurmurHash3 finaliser. *)

type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = mix64 (Int64.of_int seed) }
let copy t = { state = t.state }

let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t = { state = next_int64 t }

let bits30 t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 34)

(* 62 random bits as a non-negative int. *)
let bits62 t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Splitmix.int: bad bound";
  if bound land (bound - 1) = 0 then (* power of two: mask *)
    bits62 t land (bound - 1)
  else begin
    (* Rejection sampling: [bits62] is uniform on [0, max_int], and we
       accept draws below the largest multiple of [bound] that fits. *)
    let limit = max_int / bound * bound in
    let rec draw () =
      let v = bits62 t in
      if v < limit then v mod bound else draw ()
    in
    draw ()
  end

let int_in t lo hi =
  if hi < lo then invalid_arg "Splitmix.int_in: empty range";
  lo + int t (hi - lo + 1)

let float t bound =
  (* 53 random bits scaled to [0, 1). *)
  let bits53 = Int64.to_int (Int64.shift_right_logical (next_int64 t) 11) in
  float_of_int bits53 /. 9007199254740992.0 *. bound

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
