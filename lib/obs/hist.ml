(* Exponents in [-128, 127] (every latency, distance or count a
   simulation produces) live in the flat [counts] array at [e + 128];
   anything outside — the [<= 0] bucket at [min_int], subnormals,
   infinities — spills to the hashtable.  [acc] holds
   [|sum; min; max|]: float-array slots keep the per-observation
   accumulation unboxed, where mutable float fields in this mixed
   record would box every store. *)
let lo_e = -128
let n_direct = 256

type t = {
  mutable count : int;
  acc : float array; (* [|sum; min_v; max_v|] *)
  counts : int array; (* counts.(e - lo_e) *)
  spill : (int, int) Hashtbl.t;
}

type snapshot = {
  count : int;
  sum : float;
  min_v : float;
  max_v : float;
  buckets : (int * int) list;
}

let create () : t =
  {
    count = 0;
    acc = [| 0.0; infinity; neg_infinity |];
    counts = Array.make n_direct 0;
    spill = Hashtbl.create 4;
  }

(* Bucket exponent: smallest e with v <= 2^e, i.e. v in (2^(e-1), 2^e].
   frexp gives v = m * 2^e with m in [0.5, 1), so e is the answer except
   exactly at powers of two, where frexp's e is one too high.  The hot
   path reads the exponent straight out of the IEEE-754 bit pattern
   (composed [Int64] conversions stay unboxed); [frexp] — which
   allocates its result pair — remains only for subnormals and
   infinities, where it gives the same answer it always did. *)
let bucket_of v =
  if v <= 0.0 then min_int
  else begin
    let biased =
      Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float v) 52)
      land 0x7FF
    in
    if biased = 0 || biased = 0x7FF then begin
      let m, e = Float.frexp v in
      if m = 0.5 then e - 1 else e
    end
    else if Int64.to_int (Int64.bits_of_float v) land 0xF_FFFF_FFFF_FFFF = 0
    then biased - 1023 (* power of two: mantissa bits clear *)
    else biased - 1022
  end

let bucket_upper e = if e = min_int then 0.0 else Float.ldexp 1.0 e

let bump t e k =
  let i = e - lo_e in
  if i >= 0 && i < n_direct then
    Array.unsafe_set t.counts i (Array.unsafe_get t.counts i + k)
  else
    let cur = Option.value (Hashtbl.find_opt t.spill e) ~default:0 in
    Hashtbl.replace t.spill e (cur + k)

let observe_n (t : t) v k =
  if k < 0 then invalid_arg "Hist.observe_n: negative count";
  if k > 0 then begin
    t.count <- t.count + k;
    let a = t.acc in
    Array.unsafe_set a 0 (Array.unsafe_get a 0 +. (v *. float_of_int k));
    if v < Array.unsafe_get a 1 then Array.unsafe_set a 1 v;
    if v > Array.unsafe_get a 2 then Array.unsafe_set a 2 v;
    bump t (bucket_of v) k
  end

let observe t v = observe_n t v 1

let add_snapshot (t : t) (s : snapshot) =
  t.count <- t.count + s.count;
  t.acc.(0) <- t.acc.(0) +. s.sum;
  if s.min_v < t.acc.(1) then t.acc.(1) <- s.min_v;
  if s.max_v > t.acc.(2) then t.acc.(2) <- s.max_v;
  List.iter (fun (e, c) -> bump t e c) s.buckets

let merge_into (dst : t) (src : t) =
  if dst == src then invalid_arg "Hist.merge_into: dst and src must differ";
  dst.count <- dst.count + src.count;
  dst.acc.(0) <- dst.acc.(0) +. src.acc.(0);
  if src.acc.(1) < dst.acc.(1) then dst.acc.(1) <- src.acc.(1);
  if src.acc.(2) > dst.acc.(2) then dst.acc.(2) <- src.acc.(2);
  for i = 0 to n_direct - 1 do
    if src.counts.(i) <> 0 then
      dst.counts.(i) <- dst.counts.(i) + src.counts.(i)
  done;
  Hashtbl.iter (fun e c -> bump dst e c) src.spill

let snapshot (t : t) : snapshot =
  {
    count = t.count;
    sum = t.acc.(0);
    min_v = t.acc.(1);
    max_v = t.acc.(2);
    buckets =
      (let l = ref (Hashtbl.fold (fun e c acc -> (e, c) :: acc) t.spill []) in
       for i = n_direct - 1 downto 0 do
         if t.counts.(i) <> 0 then l := (i + lo_e, t.counts.(i)) :: !l
       done;
       List.sort (fun (a, _) (b, _) -> compare a b) !l);
  }

let empty =
  { count = 0; sum = 0.0; min_v = infinity; max_v = neg_infinity; buckets = [] }

(* Add two sorted bucket lists. *)
let rec add_buckets a b =
  match (a, b) with
  | [], rest | rest, [] -> rest
  | (ea, ca) :: ta, (eb, cb) :: tb ->
      if ea < eb then (ea, ca) :: add_buckets ta b
      else if ea > eb then (eb, cb) :: add_buckets a tb
      else (ea, ca + cb) :: add_buckets ta tb

let merge a b =
  {
    count = a.count + b.count;
    sum = a.sum +. b.sum;
    min_v = Float.min a.min_v b.min_v;
    max_v = Float.max a.max_v b.max_v;
    buckets = add_buckets a.buckets b.buckets;
  }

let mean s = if s.count = 0 then 0.0 else s.sum /. float_of_int s.count

let quantile s q =
  if q < 0.0 || q > 1.0 then invalid_arg "Hist.quantile: q outside [0,1]";
  if s.count = 0 then 0.0
  else begin
    let target =
      let t = int_of_float (Float.round (q *. float_of_int s.count)) in
      max 1 (min s.count t)
    in
    let rec go acc = function
      | [] -> s.max_v
      | (e, c) :: rest ->
          let acc = acc + c in
          if acc >= target then Float.min (bucket_upper e) s.max_v
          else go acc rest
    in
    go 0 s.buckets
  end

let quantiles s = (quantile s 0.5, quantile s 0.95, quantile s 0.99)

let quantiles_opt s = if s.count = 0 then None else Some (quantiles s)
