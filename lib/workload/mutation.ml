(* Update-stream specification for the dynamic-index experiments: how
   many index mutations ride along a query stream, their insert/delete
   mix, and the log-structured merge policy the dynamic index runs
   under.  Same clause grammar as Fault.Spec / Arrival
   (name:key=value,...) with exact round-trip through [to_string]. *)

type t = {
  ratio : float;  (* updates per query, >= 0; 0 = static run *)
  insert_frac : float;  (* fraction of updates that are inserts *)
  seg_capacity : int;
  merge_threshold : int;
  major_fraction : float;
}

let none =
  {
    ratio = 0.0;
    insert_frac = 0.5;
    seg_capacity = 64;
    merge_threshold = 4;
    major_fraction = 0.25;
  }

let is_none t = t.ratio = 0.0

(* ------------------------------------------------------------------ *)
(* Parsing (clause grammar shared with Fault.Spec / Arrival). *)

let ( let* ) = Result.bind

let bounded_float ~clause ~key ~lo ~hi s =
  match float_of_string_opt s with
  | Some v when v >= lo && v <= hi && Float.is_finite v -> Ok v
  | _ ->
      Error
        (Printf.sprintf "%s: %s=%S is not a number in [%g, %g]" clause key s lo
           hi)

let pos_float ~clause ~key s =
  match float_of_string_opt s with
  | Some v when v > 0.0 && Float.is_finite v -> Ok v
  | _ ->
      Error
        (Printf.sprintf "%s: %s=%S is not a positive finite number" clause key
           s)

let pos_int ~clause ~key ~floor s =
  match int_of_string_opt s with
  | Some v when v >= floor -> Ok v
  | _ ->
      Error (Printf.sprintf "%s: %s=%S is not an integer >= %d" clause key s floor)

let kvs_of ~clause parts =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | kv :: rest -> (
        match String.index_opt kv '=' with
        | Some i ->
            let k = String.trim (String.sub kv 0 i) in
            let v =
              String.trim (String.sub kv (i + 1) (String.length kv - i - 1))
            in
            go ((k, v) :: acc) rest
        | None ->
            Error (Printf.sprintf "%s: expected key=value, got %S" clause kv))
  in
  go [] parts

let reject_unknown ~clause ~known kvs =
  match List.find_opt (fun (k, _) -> not (List.mem k known)) kvs with
  | Some (k, _) ->
      Error
        (Printf.sprintf "%s: unknown key %S (expected %s)" clause k
           (String.concat ", " known))
  | None -> Ok ()

let find kvs k = List.assoc_opt k kvs

let of_kvs ~clause kvs =
  let* () =
    reject_unknown ~clause
      ~known:[ "ratio"; "inserts"; "segment"; "threshold"; "major" ]
      kvs
  in
  let* ratio =
    bounded_float ~clause ~key:"ratio" ~lo:0.0 ~hi:1e6
      (Option.value (find kvs "ratio") ~default:"0")
  in
  let* insert_frac =
    bounded_float ~clause ~key:"inserts" ~lo:0.0 ~hi:1.0
      (Option.value (find kvs "inserts") ~default:"0.5")
  in
  let* seg_capacity =
    pos_int ~clause ~key:"segment" ~floor:1
      (Option.value (find kvs "segment") ~default:"64")
  in
  let* merge_threshold =
    pos_int ~clause ~key:"threshold" ~floor:2
      (Option.value (find kvs "threshold") ~default:"4")
  in
  let* major_fraction =
    pos_float ~clause ~key:"major"
      (Option.value (find kvs "major") ~default:"0.25")
  in
  Ok { ratio; insert_frac; seg_capacity; merge_threshold; major_fraction }

let parse s =
  let s = String.trim s in
  if s = "" || String.lowercase_ascii s = "none" then Ok none
  else
    let name, rest =
      match String.index_opt s ':' with
      | Some i ->
          ( String.trim (String.sub s 0 i),
            String.sub s (i + 1) (String.length s - i - 1) )
      | None -> (s, "")
    in
    match String.lowercase_ascii name with
    | "mix" ->
        let parts = if rest = "" then [] else String.split_on_char ',' rest in
        let* kvs = kvs_of ~clause:"mix" parts in
        of_kvs ~clause:"mix" kvs
    | _ when rest = "" && not (String.contains s '=') -> (
        (* Bare-ratio shorthand: [--updates 0.2]. *)
        match bounded_float ~clause:"updates" ~key:"ratio" ~lo:0.0 ~hi:1e6 s with
        | Ok ratio -> Ok { none with ratio }
        | Error e -> Error e)
    | other -> Error (Printf.sprintf "unknown update spec %S" other)

(* Exact-short float rendering, as in Fault.Spec / Arrival. *)
let f v =
  let strip_plus s = String.concat "" (String.split_on_char '+' s) in
  let s = Printf.sprintf "%.17g" v in
  let short = Printf.sprintf "%g" v in
  strip_plus (if float_of_string short = v then short else s)

let to_string t =
  if is_none t && t = none then "none"
  else
    Printf.sprintf "mix:ratio=%s,inserts=%s,segment=%d,threshold=%d,major=%s"
      (f t.ratio) (f t.insert_frac) t.seg_capacity t.merge_threshold
      (f t.major_fraction)

let policy t =
  {
    Index.Segments.seg_capacity = t.seg_capacity;
    merge_threshold = t.merge_threshold;
    major_fraction = t.major_fraction;
  }

(* ------------------------------------------------------------------ *)
(* Stream generation *)

type op = Query of int | Insert of int | Delete of int

let n_updates t ~n_queries =
  int_of_float (t.ratio *. float_of_int n_queries)

(* Interleave [floor (ratio * n_queries)] updates among the [n_queries]
   query slots.  An update's position [p] (uniform over [0, n_queries])
   means "before query p" ([p = n_queries]: after the last); positions
   are drawn first and sorted, so the stream is deterministic in the
   generator and updates spread across the whole run.  Update keys are
   uniform over the full key domain — collisions with live keys (no-op
   inserts) and dead keys (no-op deletes) are part of the workload. *)
let plan t g ~n_queries =
  let n_up = n_updates t ~n_queries in
  let pos = Array.init n_up (fun _ -> Prng.Splitmix.int g (n_queries + 1)) in
  Array.sort Int.compare pos;
  let ops = Array.make (n_queries + n_up) (Query 0) in
  let u = ref 0 and oi = ref 0 in
  let drain_up_to q =
    while !u < n_up && pos.(!u) <= q do
      let k = Prng.Splitmix.int g Index.Key.sentinel in
      ops.(!oi) <-
        (if Prng.Splitmix.float g 1.0 < t.insert_frac then Insert k
         else Delete k);
      incr oi;
      incr u
    done
  in
  for q = 0 to n_queries - 1 do
    drain_up_to q;
    ops.(!oi) <- Query q;
    incr oi
  done;
  drain_up_to n_queries;
  ops
