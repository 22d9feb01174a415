let us x = x *. 1e3
let ms x = x *. 1e6
let s x = x *. 1e9
let to_s x = x /. 1e9
let to_us x = x /. 1e3
let to_ms x = x /. 1e6

let pp fmt x =
  let ax = Float.abs x in
  if ax < 1e3 then Format.fprintf fmt "%.2f ns" x
  else if ax < 1e6 then Format.fprintf fmt "%.2f us" (to_us x)
  else if ax < 1e9 then Format.fprintf fmt "%.2f ms" (to_ms x)
  else Format.fprintf fmt "%.3f s" (to_s x)

let to_string x = Format.asprintf "%a" pp x
let bytes_per_ns_of_mb_per_s mb = mb *. 1e6 /. 1e9
let mb_per_s_of_bytes_per_ns b = b *. 1e9 /. 1e6
