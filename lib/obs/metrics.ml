type labels = (string * string) list

type cell =
  | C_cell of { mutable c : float }
  | G_cell of { mutable g : float }
  | H_cell of Hist.t

type key = { k_name : string; k_labels : labels }

type t = (key, cell) Hashtbl.t

let create () : t = Hashtbl.create 64

let canon labels =
  List.sort (fun (a, _) (b, _) -> compare a b) labels

let key name labels = { k_name = name; k_labels = canon labels }

let cell_of t k fresh =
  match Hashtbl.find_opt t k with
  | Some c -> c
  | None ->
      let c = fresh () in
      Hashtbl.add t k c;
      c

let wrong_kind name what =
  invalid_arg (Printf.sprintf "Metrics: %s is not a %s" name what)

let incr_f t ?(labels = []) name by =
  match cell_of t (key name labels) (fun () -> C_cell { c = 0.0 }) with
  | C_cell c -> c.c <- c.c +. by
  | _ -> wrong_kind name "counter"

let incr t ?labels name by = incr_f t ?labels name (float_of_int by)

let gauge t ?(labels = []) name v =
  match cell_of t (key name labels) (fun () -> G_cell { g = 0.0 }) with
  | G_cell g -> g.g <- v
  | _ -> wrong_kind name "gauge"

let hist_cell t ?(labels = []) name =
  match cell_of t (key name labels) (fun () -> H_cell (Hist.create ())) with
  | H_cell h -> h
  | _ -> wrong_kind name "histogram"

let observe t ?labels name v = Hist.observe (hist_cell t ?labels name) v

module Snapshot = struct
  type value =
    | Counter of float
    | Gauge of float
    | Histogram of Hist.snapshot

  type entry = { name : string; labels : labels; value : value }

  type t = entry list

  let compare_key a b =
    match compare a.name b.name with
    | 0 -> compare a.labels b.labels
    | c -> c

  let sorted entries = List.sort compare_key entries

  let find t ?(labels = []) name =
    let labels = canon labels in
    List.find_map
      (fun e -> if e.name = name && e.labels = labels then Some e.value else None)
      t

  (* ---------------------------------------------------------------- *)
  (* JSON *)

  let labels_to_json labels =
    Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) labels)

  let num f =
    if Float.is_integer f && Float.abs f < 1e15 then
      Json.Int (int_of_float f)
    else Json.Float f

  let hist_to_json (h : Hist.snapshot) =
    Json.Obj
      [
        ("count", Json.Int h.Hist.count);
        ("sum", Json.Float h.Hist.sum);
        ("min", if h.Hist.count = 0 then Json.Null else Json.Float h.Hist.min_v);
        ("max", if h.Hist.count = 0 then Json.Null else Json.Float h.Hist.max_v);
        ( "buckets",
          Json.List
            (List.map
               (fun (e, c) ->
                 Json.Obj
                   [
                     ("le", Json.Float (Hist.bucket_upper e));
                     ("count", Json.Int c);
                   ])
               h.Hist.buckets) );
      ]

  let entry_to_json e =
    let typed =
      match e.value with
      | Counter c -> [ ("type", Json.String "counter"); ("value", num c) ]
      | Gauge g -> [ ("type", Json.String "gauge"); ("value", Json.Float g) ]
      | Histogram h ->
          [ ("type", Json.String "histogram"); ("value", hist_to_json h) ]
    in
    Json.Obj
      (("name", Json.String e.name)
      :: (if e.labels = [] then [] else [ ("labels", labels_to_json e.labels) ])
      @ typed)

  let to_json t = Json.List (List.map entry_to_json t)

  let of_json j =
    let entry_of_json j =
      let str k =
        match Json.member k j with
        | Some (Json.String s) -> s
        | _ -> failwith (Printf.sprintf "metric entry: missing %S" k)
      in
      let labels =
        match Json.member "labels" j with
        | Some (Json.Obj kvs) ->
            List.map (fun (k, v) -> (k, Json.to_string_exn v)) kvs
        | _ -> []
      in
      let value () =
        match Json.member "value" j with
        | Some v -> v
        | None -> failwith "metric entry: missing value"
      in
      let value =
        match str "type" with
        | "counter" -> Counter (Json.to_float_exn (value ()))
        | "gauge" -> Gauge (Json.to_float_exn (value ()))
        | "histogram" ->
            let v = value () in
            let f k =
              match Json.member k v with
              | Some x -> x
              | None -> failwith (Printf.sprintf "histogram: missing %S" k)
            in
            let buckets =
              List.map
                (fun b ->
                  let le =
                    Json.to_float_exn (Option.get (Json.member "le" b))
                  in
                  let e =
                    if le = 0.0 then min_int
                    else
                      let m, e = Float.frexp le in
                      if m = 0.5 then e - 1 else e
                  in
                  (e, Json.to_int_exn (Option.get (Json.member "count" b))))
                (Json.to_list_exn (f "buckets"))
            in
            let count = Json.to_int_exn (f "count") in
            Histogram
              {
                Hist.count;
                sum = Json.to_float_exn (f "sum");
                min_v =
                  (match f "min" with
                  | Json.Null -> infinity
                  | v -> Json.to_float_exn v);
                max_v =
                  (match f "max" with
                  | Json.Null -> neg_infinity
                  | v -> Json.to_float_exn v);
                buckets;
              }
        | other -> failwith (Printf.sprintf "unknown metric type %S" other)
      in
      { name = str "name"; labels = canon labels; value }
    in
    match j with
    | Json.List entries -> (
        match sorted (List.map entry_of_json entries) with
        | t -> Ok t
        | exception Failure msg -> Error msg)
    | _ -> Error "metrics snapshot: expected a JSON array"

  (* ---------------------------------------------------------------- *)
  (* Aligned text *)

  let key_string e =
    if e.labels = [] then e.name
    else
      Printf.sprintf "%s{%s}" e.name
        (String.concat ","
           (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) e.labels))

  let value_string = function
    | Counter c ->
        if Float.is_integer c && Float.abs c < 1e15 then
          Printf.sprintf "%.0f" c
        else Printf.sprintf "%.3f" c
    | Gauge g -> Printf.sprintf "%g" g
    | Histogram h ->
        let p50, p95, p99 = Hist.quantiles h in
        Printf.sprintf "count %d, mean %.2f, p50<=%g, p95<=%g, p99<=%g, max %g"
          h.Hist.count (Hist.mean h) p50 p95 p99
          (if h.Hist.count = 0 then 0.0 else h.Hist.max_v)

  let render t =
    let width =
      List.fold_left (fun acc e -> max acc (String.length (key_string e))) 0 t
    in
    let buf = Buffer.create 1024 in
    List.iter
      (fun e ->
        Buffer.add_string buf
          (Printf.sprintf "%-*s  %s\n" width (key_string e)
             (value_string e.value)))
      t;
    Buffer.contents buf
end

let snapshot (t : t) =
  Hashtbl.fold
    (fun k cell acc ->
      let value =
        match cell with
        | C_cell { c } -> Snapshot.Counter c
        | G_cell { g } -> Snapshot.Gauge g
        | H_cell h -> Snapshot.Histogram (Hist.snapshot h)
      in
      { Snapshot.name = k.k_name; labels = k.k_labels; value } :: acc)
    t []
  |> Snapshot.sorted

let observe_hist t ?labels name (h : Hist.snapshot) =
  Hist.add_snapshot (hist_cell t ?labels name) h
