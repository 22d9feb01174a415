type process =
  | Poisson of { rate : float }
  | Mmpp of { rate : float; burst : float; on_ns : float; off_ns : float }
  | Diurnal of { rate : float; peak : float; period_ns : float }
  | Replay of { path : string }

type t = { process : process }

let default = { process = Poisson { rate = 1e6 } }
let poisson rate = { process = Poisson { rate } }

let base_rate_qps t =
  match t.process with
  | Poisson { rate } -> Some rate
  | Mmpp { rate; burst; on_ns; off_ns } ->
      (* Time-average of the two-state intensity, weighted by the mean
         sojourns. *)
      Some (rate *. ((off_ns +. (burst *. on_ns)) /. (off_ns +. on_ns)))
  | Diurnal { rate; peak; _ } -> Some (rate *. (1.0 +. ((peak -. 1.0) /. 2.0)))
  | Replay _ -> None

let scale_to t ~offered_qps =
  match t.process with
  | Poisson _ -> { process = Poisson { rate = offered_qps } }
  | Mmpp m ->
      (* Keep the burst factor and sojourn shape; move the base rate so
         the *time-average* load matches the asked-for offered load. *)
      let avg_factor =
        (m.off_ns +. (m.burst *. m.on_ns)) /. (m.off_ns +. m.on_ns)
      in
      { process = Mmpp { m with rate = offered_qps /. avg_factor } }
  | Diurnal d ->
      let avg_factor = 1.0 +. ((d.peak -. 1.0) /. 2.0) in
      { process = Diurnal { d with rate = offered_qps /. avg_factor } }
  | Replay _ -> t

(* ------------------------------------------------------------------ *)
(* Parsing (same clause grammar as Fault.Spec: name:key=value,...) *)

let ( let* ) = Result.bind

let pos_float ~clause ~key s =
  match float_of_string_opt s with
  | Some v when v > 0.0 && Float.is_finite v -> Ok v
  | _ ->
      Error
        (Printf.sprintf "%s: %s=%S is not a positive finite number" clause key
           s)

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

let parse s =
  let s = String.trim s in
  let name, rest =
    match String.index_opt s ':' with
    | Some i ->
        ( String.trim (String.sub s 0 i),
          String.sub s (i + 1) (String.length s - i - 1) )
    | None -> (s, "")
  in
  let parts = if rest = "" then [] else String.split_on_char ',' rest in
  match String.lowercase_ascii name with
  | "poisson" ->
      (* Shorthand: [poisson:RATE] with a bare number. *)
      let* rate =
        match parts with
        | [ v ] when not (String.contains v '=') ->
            pos_float ~clause:"poisson" ~key:"rate" v
        | _ ->
            let* kvs = kvs_of ~clause:"poisson" parts in
            let* () = reject_unknown ~clause:"poisson" ~known:[ "rate" ] kvs in
            pos_float ~clause:"poisson" ~key:"rate"
              (Option.value (find kvs "rate") ~default:"1e6")
      in
      Ok { process = Poisson { rate } }
  | "mmpp" ->
      let* kvs = kvs_of ~clause:"mmpp" parts in
      let* () =
        reject_unknown ~clause:"mmpp" ~known:[ "rate"; "burst"; "on"; "off" ]
          kvs
      in
      let* rate =
        pos_float ~clause:"mmpp" ~key:"rate"
          (Option.value (find kvs "rate") ~default:"1e6")
      in
      let* burst =
        pos_float ~clause:"mmpp" ~key:"burst"
          (Option.value (find kvs "burst") ~default:"8")
      in
      let* on_ns =
        pos_float ~clause:"mmpp" ~key:"on"
          (Option.value (find kvs "on") ~default:"1e6")
      in
      let* off_ns =
        pos_float ~clause:"mmpp" ~key:"off"
          (Option.value (find kvs "off") ~default:"9e6")
      in
      if burst < 1.0 then Error "mmpp: burst must be >= 1"
      else Ok { process = Mmpp { rate; burst; on_ns; off_ns } }
  | "diurnal" ->
      let* kvs = kvs_of ~clause:"diurnal" parts in
      let* () =
        reject_unknown ~clause:"diurnal" ~known:[ "rate"; "peak"; "period" ]
          kvs
      in
      let* rate =
        pos_float ~clause:"diurnal" ~key:"rate"
          (Option.value (find kvs "rate") ~default:"1e6")
      in
      let* peak =
        pos_float ~clause:"diurnal" ~key:"peak"
          (Option.value (find kvs "peak") ~default:"4")
      in
      let* period_ns =
        pos_float ~clause:"diurnal" ~key:"period"
          (Option.value (find kvs "period") ~default:"1e7")
      in
      Ok { process = Diurnal { rate; peak; period_ns } }
  | "replay" -> (
      (* Shorthand: [replay:FILE] — anything after the colon that is not
         a key=value list is the path (paths may contain '=' only via the
         explicit [path=] form). *)
      match parts with
      | [] -> Error "replay: requires path=FILE"
      | [ v ] when not (String.contains v '=') ->
          Ok { process = Replay { path = v } }
      | _ ->
          let* kvs = kvs_of ~clause:"replay" parts in
          let* () = reject_unknown ~clause:"replay" ~known:[ "path" ] kvs in
          (match find kvs "path" with
          | Some path when path <> "" -> Ok { process = Replay { path } }
          | _ -> Error "replay: requires path=FILE"))
  | other -> Error (Printf.sprintf "unknown arrival process %S" other)

(* Exact-short float rendering, as in Fault.Spec: %g when it round-trips,
   %.17g otherwise; positive exponents render without '+' so specs stay
   shell-friendly. *)
let f v =
  let strip_plus s = String.concat "" (String.split_on_char '+' s) in
  let s = Printf.sprintf "%.17g" v in
  let short = Printf.sprintf "%g" v in
  strip_plus (if float_of_string short = v then short else s)

let to_string t =
  match t.process with
  | Poisson { rate } -> Printf.sprintf "poisson:rate=%s" (f rate)
  | Mmpp { rate; burst; on_ns; off_ns } ->
      Printf.sprintf "mmpp:rate=%s,burst=%s,on=%s,off=%s" (f rate) (f burst)
        (f on_ns) (f off_ns)
  | Diurnal { rate; peak; period_ns } ->
      Printf.sprintf "diurnal:rate=%s,peak=%s,period=%s" (f rate) (f peak)
        (f period_ns)
  | Replay { path } -> Printf.sprintf "replay:path=%s" path

(* ------------------------------------------------------------------ *)
(* Generation *)

(* Exponential with the given mean; [Splitmix.float g 1.0] is in [0,1),
   so [1 - u] is in (0,1] and the log is finite. *)
let exp_sample g ~mean = -.mean *. log (1.0 -. Prng.Splitmix.float g 1.0)

(* The times [draw push] pushes, in order, as one unboxed array. *)
let drawn draw =
  let times = ref (Array.create_float 256) and len = ref 0 in
  draw (fun tm ->
      if !len = Array.length !times then
        times := Array.append !times (Array.create_float !len);
      !times.(!len) <- tm;
      incr len);
  Array.sub !times 0 !len

(* One client's stream at a homogeneous rate (per nanosecond). *)
let poisson_stream g ~rate_ns ~duration_ns =
  drawn @@ fun push ->
  let t = ref (exp_sample g ~mean:(1.0 /. rate_ns)) in
  while !t < duration_ns do
    push !t;
    t := !t +. exp_sample g ~mean:(1.0 /. rate_ns)
  done

(* Two-state MMPP: alternate quiet/burst sojourns; within a sojourn the
   stream is Poisson at that state's rate, and the memorylessness of the
   exponential lets us discard the candidate that crosses the state
   boundary and redraw at the new rate. *)
let mmpp_stream g ~rate_ns ~burst ~on_ns ~off_ns ~duration_ns =
  drawn @@ fun push ->
  let t = ref 0.0 in
  let bursting = ref false in
  let state_end = ref (exp_sample g ~mean:off_ns) in
  while !t < duration_ns do
    let rate = if !bursting then rate_ns *. burst else rate_ns in
    let cand = !t +. exp_sample g ~mean:(1.0 /. rate) in
    if cand < !state_end then begin
      t := cand;
      if !t < duration_ns then push !t
    end
    else begin
      t := !state_end;
      bursting := not !bursting;
      state_end :=
        !state_end +. exp_sample g ~mean:(if !bursting then on_ns else off_ns)
    end
  done

(* Non-homogeneous Poisson by thinning against the peak intensity. *)
let diurnal_stream g ~rate_ns ~peak ~period_ns ~duration_ns =
  let intensity t =
    rate_ns
    *. (1.0
       +. ((peak -. 1.0) *. 0.5 *. (1.0 -. cos (2.0 *. Float.pi *. t /. period_ns)))
       )
  in
  let max_rate = rate_ns *. Float.max 1.0 peak in
  drawn @@ fun push ->
  let t = ref (exp_sample g ~mean:(1.0 /. max_rate)) in
  while !t < duration_ns do
    if Prng.Splitmix.float g 1.0 < intensity !t /. max_rate then push !t;
    t := !t +. exp_sample g ~mean:(1.0 /. max_rate)
  done

let read_replay path ~duration_ns =
  let ic =
    try open_in path
    with Sys_error msg -> failwith (Printf.sprintf "replay: %s" msg)
  in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let acc = ref [] in
      let line_no = ref 0 in
      (try
         while true do
           let line = String.trim (input_line ic) in
           incr line_no;
           if line <> "" && line.[0] <> '#' then
             match float_of_string_opt line with
             | Some t when t >= 0.0 && Float.is_finite t ->
                 if t < duration_ns then acc := t :: !acc
             | _ ->
                 failwith
                   (Printf.sprintf "replay: %s:%d: bad timestamp %S" path
                      !line_no line)
         done
       with End_of_file -> ());
      let arr = Array.of_list (List.rev !acc) in
      Array.stable_sort Float.compare arr;
      arr)

(* Ascending [a] and [b] merged, [a]'s element first on a tie. *)
let merge2 (a : float array) (b : float array) =
  let na = Array.length a and nb = Array.length b in
  let out = Array.create_float (na + nb) and i = ref 0 in
  for o = 0 to na + nb - 1 do
    let j = o - !i in
    if j = nb || (!i < na && not (b.(j) < a.(!i))) then begin
      out.(o) <- a.(!i);
      incr i
    end
    else out.(o) <- b.(j)
  done;
  out

(* Each half merged, then the halves: a tie goes to the lower stream. *)
let merge streams =
  let rec go lo hi =
    if hi - lo = 1 then streams.(lo)
    else merge2 (go lo ((lo + hi) / 2)) (go ((lo + hi) / 2) hi)
  in
  if Array.length streams = 0 then [||] else go 0 (Array.length streams)

let streams t ~seed ~clients ~duration_ns =
  let clients = max 1 clients in
  let g = Prng.Splitmix.create seed in
  let per_client rate = rate /. 1e9 /. float_of_int clients in
  let each stream =
    Array.init clients (fun _ -> stream (Prng.Splitmix.split g))
  in
  if duration_ns <= 0.0 then [||]
  else
    match t.process with
    | Replay { path } -> [| read_replay path ~duration_ns |]
    | Poisson { rate } ->
        each (poisson_stream ~rate_ns:(per_client rate) ~duration_ns)
    | Mmpp { rate; burst; on_ns; off_ns } ->
        each
          (mmpp_stream ~rate_ns:(per_client rate) ~burst ~on_ns ~off_ns
             ~duration_ns)
    | Diurnal { rate; peak; period_ns } ->
        each
          (diurnal_stream ~rate_ns:(per_client rate) ~peak ~period_ns
             ~duration_ns)

let generate t ~seed ~clients ~duration_ns =
  merge (streams t ~seed ~clients ~duration_ns)
