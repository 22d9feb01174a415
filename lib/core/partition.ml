type t = { keys : int array; bounds : int array (* parts+1 rank boundaries *) }

(* Near-equal chunk sizes: the first [n mod parts] chunks get one extra
   element, so sizes differ by at most one. *)
let chunk_bounds n parts =
  let base = n / parts and extra = n mod parts in
  let bounds = Array.make (parts + 1) 0 in
  for i = 1 to parts do
    bounds.(i) <- bounds.(i - 1) + base + (if i <= extra then 1 else 0)
  done;
  bounds

let round_robin n parts =
  Array.init parts (fun p ->
      Array.init ((n - p + parts - 1) / parts) (fun j -> p + (j * parts)))

let make ~keys ~parts =
  Index.Key.check_sorted_unique keys;
  let n = Array.length keys in
  if parts < 1 then invalid_arg "Partition.make: need at least one part";
  if n < parts then invalid_arg "Partition.make: fewer keys than parts";
  { keys; bounds = chunk_bounds n parts }

let parts t = Array.length t.bounds - 1
let base t s = t.bounds.(s)
let slice_len t s = t.bounds.(s + 1) - t.bounds.(s)
let slice t s = Array.sub t.keys t.bounds.(s) (slice_len t s)

let delimiters t =
  Array.init (parts t - 1) (fun i -> t.keys.(t.bounds.(i + 1)))

let owner t q = Index.Ref_impl.partition_of ~delimiters:(delimiters t) q

let max_slice_bytes t ~word_bytes =
  let m = ref 0 in
  for s = 0 to parts t - 1 do
    m := max !m (slice_len t s)
  done;
  !m * word_bytes
