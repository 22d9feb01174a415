type t = {
  drop_p : float;
  dup_p : float;
  delay_p : float;
  delay_ns : float;
  degrade_node : int option;
  degrade_factor : float;
  crashes : (int * float) list;
  slow : (int * float) list;
  seed : int option;
  timeout_ns : float option;
  retries : int;
  fallback : bool;
}

let none =
  {
    drop_p = 0.0;
    dup_p = 0.0;
    delay_p = 0.0;
    delay_ns = 1e5;
    degrade_node = None;
    degrade_factor = 1.0;
    crashes = [];
    slow = [];
    seed = None;
    timeout_ns = None;
    retries = 2;
    fallback = true;
  }

let is_none t =
  t.drop_p = 0.0 && t.dup_p = 0.0 && t.delay_p = 0.0
  && t.degrade_factor = 1.0 && t.crashes = [] && t.slow = []

let nodes t =
  Option.to_list t.degrade_node @ List.map fst t.crashes @ List.map fst t.slow

(* ------------------------------------------------------------------ *)
(* Parsing *)

let ( let* ) = Result.bind

let prob ~clause s =
  match float_of_string_opt s with
  | Some p when p >= 0.0 && p <= 1.0 -> Ok p
  | _ -> Error (Printf.sprintf "%s: probability %S outside [0,1]" clause s)

let pos_float ~clause ~key s =
  match float_of_string_opt s with
  | Some v when v >= 0.0 -> Ok v
  | _ -> Error (Printf.sprintf "%s: %s=%S is not a non-negative number" clause key s)

let int_kv ~clause ~key s =
  match int_of_string_opt s with
  | Some v when v >= 0 -> Ok v
  | _ -> Error (Printf.sprintf "%s: %s=%S is not a non-negative integer" clause key s)

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

let apply_clause t clause =
  let name, kvs =
    match String.index_opt clause ':' with
    | Some i ->
        ( String.trim (String.sub clause 0 i),
          String.split_on_char ','
            (String.sub clause (i + 1) (String.length clause - i - 1)) )
    | None -> (String.trim clause, [])
  in
  (* A bare [seed=N] clause has no name part. *)
  if String.contains name '=' then
    let* kvs = kvs_of ~clause:name [ name ] in
    let* () = reject_unknown ~clause:"seed" ~known:[ "seed" ] kvs in
    match find kvs "seed" with
    | Some v ->
        let* seed = int_kv ~clause:"seed" ~key:"seed" v in
        Ok { t with seed = Some seed }
    | None -> Error (Printf.sprintf "unknown clause %S" name)
  else
    let* kvs = kvs_of ~clause:name kvs in
    match name with
    | "drop" ->
        let* () = reject_unknown ~clause:name ~known:[ "p" ] kvs in
        let* p = prob ~clause:name (Option.value (find kvs "p") ~default:"0.01") in
        Ok { t with drop_p = p }
    | "dup" ->
        let* () = reject_unknown ~clause:name ~known:[ "p" ] kvs in
        let* p = prob ~clause:name (Option.value (find kvs "p") ~default:"0.01") in
        Ok { t with dup_p = p }
    | "delay" ->
        let* () = reject_unknown ~clause:name ~known:[ "p"; "ns" ] kvs in
        let* p = prob ~clause:name (Option.value (find kvs "p") ~default:"0.01") in
        let* ns =
          pos_float ~clause:name ~key:"ns"
            (Option.value (find kvs "ns") ~default:"1e5")
        in
        Ok { t with delay_p = p; delay_ns = ns }
    | "degrade" ->
        let* () = reject_unknown ~clause:name ~known:[ "node"; "factor" ] kvs in
        let* node =
          match find kvs "node" with
          | None -> Ok None
          | Some v ->
              let* n = int_kv ~clause:name ~key:"node" v in
              Ok (Some n)
        in
        let* factor =
          pos_float ~clause:name ~key:"factor"
            (Option.value (find kvs "factor") ~default:"4")
        in
        if factor < 1.0 then
          Error (Printf.sprintf "%s: factor must be >= 1" name)
        else Ok { t with degrade_node = node; degrade_factor = factor }
    | "crash" -> (
        let* () = reject_unknown ~clause:name ~known:[ "node"; "at" ] kvs in
        match find kvs "node" with
        | None -> Error "crash: requires node=N"
        | Some v ->
            let* node = int_kv ~clause:name ~key:"node" v in
            let* at =
              pos_float ~clause:name ~key:"at"
                (Option.value (find kvs "at") ~default:"0")
            in
            Ok
              {
                t with
                crashes =
                  List.sort compare ((node, at) :: List.remove_assoc node t.crashes);
              })
    | "slow" -> (
        let* () = reject_unknown ~clause:name ~known:[ "node"; "factor" ] kvs in
        match find kvs "node" with
        | None -> Error "slow: requires node=N"
        | Some v ->
            let* node = int_kv ~clause:name ~key:"node" v in
            let* factor =
              pos_float ~clause:name ~key:"factor"
                (Option.value (find kvs "factor") ~default:"2")
            in
            if factor < 1.0 then Error "slow: factor must be >= 1"
            else
              Ok
                {
                  t with
                  slow =
                    List.sort compare
                      ((node, factor) :: List.remove_assoc node t.slow);
                })
    | "failover" ->
        let* () =
          reject_unknown ~clause:name
            ~known:[ "timeout"; "retries"; "fallback" ] kvs
        in
        let* timeout_ns =
          match find kvs "timeout" with
          | None -> Ok t.timeout_ns
          | Some v ->
              let* ns = pos_float ~clause:name ~key:"timeout" v in
              Ok (Some ns)
        in
        let* retries =
          match find kvs "retries" with
          | None -> Ok t.retries
          | Some v -> int_kv ~clause:name ~key:"retries" v
        in
        let* fallback =
          match find kvs "fallback" with
          | None | Some "local" | Some "on" -> Ok true
          | Some "none" | Some "off" -> Ok false
          | Some other ->
              Error
                (Printf.sprintf "failover: fallback=%S (expected local|none)"
                   other)
        in
        Ok { t with timeout_ns; retries; fallback }
    | other -> Error (Printf.sprintf "unknown fault clause %S" other)

let parse s =
  let s = String.trim s in
  if s = "" || String.lowercase_ascii s = "none" then Ok none
  else
    List.fold_left
      (fun acc clause ->
        let* t = acc in
        apply_clause t (String.trim clause))
      (Ok none)
      (String.split_on_char '+' s)

(* ------------------------------------------------------------------ *)
(* Rendering *)

(* %.17g keeps round-trips exact; %g-style floats stay short for the
   common hand-written values.  '+' is the clause separator, so positive
   exponents must render without it ("8e+06" -> "8e06"). *)
let f v =
  let strip_plus s = String.concat "" (String.split_on_char '+' s) in
  let s = Printf.sprintf "%.17g" v in
  let short = Printf.sprintf "%g" v in
  strip_plus (if float_of_string short = v then short else s)

let to_string t =
  if is_none t then "none"
  else
    let clauses =
      List.concat
        [
          (if t.drop_p > 0.0 then [ Printf.sprintf "drop:p=%s" (f t.drop_p) ]
           else []);
          (if t.dup_p > 0.0 then [ Printf.sprintf "dup:p=%s" (f t.dup_p) ]
           else []);
          (if t.delay_p > 0.0 then
             [ Printf.sprintf "delay:p=%s,ns=%s" (f t.delay_p) (f t.delay_ns) ]
           else []);
          (if t.degrade_factor <> 1.0 then
             [
               (match t.degrade_node with
               | Some n ->
                   Printf.sprintf "degrade:node=%d,factor=%s" n
                     (f t.degrade_factor)
               | None ->
                   Printf.sprintf "degrade:factor=%s" (f t.degrade_factor));
             ]
           else []);
          List.map
            (fun (n, at) -> Printf.sprintf "crash:node=%d,at=%s" n (f at))
            t.crashes;
          List.map
            (fun (n, fac) -> Printf.sprintf "slow:node=%d,factor=%s" n (f fac))
            t.slow;
          (let kvs =
             List.concat
               [
                 (match t.timeout_ns with
                 | Some ns -> [ Printf.sprintf "timeout=%s" (f ns) ]
                 | None -> []);
                 (if t.retries <> none.retries then
                    [ Printf.sprintf "retries=%d" t.retries ]
                  else []);
                 (if not t.fallback then [ "fallback=none" ] else []);
               ]
           in
           if kvs = [] then []
           else [ "failover:" ^ String.concat "," kvs ]);
          (match t.seed with
          | Some s -> [ Printf.sprintf "seed=%d" s ]
          | None -> []);
        ]
    in
    String.concat "+" clauses
