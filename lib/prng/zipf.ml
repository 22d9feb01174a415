type t = { n : int; s : float; cdf : float array }

let create ~n ~s =
  if n < 1 then invalid_arg "Zipf.create: n must be >= 1";
  if s < 0.0 then invalid_arg "Zipf.create: s must be >= 0";
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for k = 0 to n - 1 do
    acc := !acc +. (1.0 /. Float.pow (float_of_int (k + 1)) s);
    cdf.(k) <- !acc
  done;
  let total = !acc in
  for k = 0 to n - 1 do
    cdf.(k) <- cdf.(k) /. total
  done;
  cdf.(n - 1) <- 1.0;
  { n; s; cdf }

let sample t g =
  let u = Splitmix.float g 1.0 in
  (* Smallest k with cdf.(k) > u. *)
  let lo = ref 0 and hi = ref (t.n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.cdf.(mid) > u then hi := mid else lo := mid + 1
  done;
  !lo

let pmf t k =
  if k < 0 || k >= t.n then invalid_arg "Zipf.pmf: out of range";
  if k = 0 then t.cdf.(0) else t.cdf.(k) -. t.cdf.(k - 1)
