type profile = { folded : string option; tail_k : int }
type timeline = { base : string option; window_ns : float option }

type t = {
  metrics : string option;
  trace : string option;
  profile : profile option;
  timeline : timeline option;
  scope : string option option;
}

let none =
  { metrics = None; trace = None; profile = None; timeline = None; scope = None }

let is_none t = t = none
let default_profile = { folded = None; tail_k = 8 }

(* ------------------------------------------------------------------ *)
(* Grammar *)

let ( let* ) = Result.bind

let clauses t =
  List.filter_map
    (fun (name, set) -> if set then Some name else None)
    [
      ("metrics", t.metrics <> None);
      ("trace", t.trace <> None);
      ("profile", t.profile <> None);
      ("timeline", t.timeline <> None);
      ("scope", t.scope <> None);
    ]

let kvs_of ~clause parts =
  List.fold_right
    (fun kv acc ->
      let* acc = acc in
      match String.index_opt kv '=' with
      | Some i ->
          let k = String.trim (String.sub kv 0 i) in
          let v =
            String.trim (String.sub kv (i + 1) (String.length kv - i - 1))
          in
          if List.mem_assoc k acc then
            Error (Printf.sprintf "%s: key %S given twice" clause k)
          else if v = "" then
            Error (Printf.sprintf "%s: %s= needs a value" clause k)
          else Ok ((k, v) :: acc)
      | None -> Error (Printf.sprintf "%s: expected key=value, got %S" clause kv))
    parts (Ok [])

let apply t clause =
  let name, kvs =
    match String.index_opt clause ':' with
    | Some i ->
        ( String.trim (String.sub clause 0 i),
          String.split_on_char ','
            (String.sub clause (i + 1) (String.length clause - i - 1)) )
    | None -> (String.trim clause, [])
  in
  let* kvs = kvs_of ~clause:name kvs in
  let known keys =
    match List.find_opt (fun (k, _) -> not (List.mem k keys)) kvs with
    | Some (k, _) ->
        Error
          (Printf.sprintf "%s: unknown key %S (expected %s)" name k
             (String.concat ", " keys))
    | None -> Ok ()
  in
  let out = List.assoc_opt "out" kvs in
  if List.mem name (clauses t) then
    Error (Printf.sprintf "clause %S given twice" name)
  else
    match name with
    | "metrics" | "trace" -> (
        let* () = known [ "out" ] in
        match out with
        | None -> Error (Printf.sprintf "%s: requires out=FILE" name)
        | Some _ when name = "metrics" -> Ok { t with metrics = out }
        | Some _ -> Ok { t with trace = out })
    | "profile" ->
        let* () = known [ "out"; "tail" ] in
        let* tail_k =
          match List.assoc_opt "tail" kvs with
          | None -> Ok default_profile.tail_k
          | Some v -> (
              match int_of_string_opt v with
              | Some k when k >= 0 -> Ok k
              | _ ->
                  Error
                    (Printf.sprintf "profile: tail=%S is not a non-negative \
                                     integer" v))
        in
        Ok { t with profile = Some { folded = out; tail_k } }
    | "timeline" ->
        let* () = known [ "out"; "window" ] in
        let* window_ns =
          match List.assoc_opt "window" kvs with
          | None -> Ok None
          | Some v -> (
              match float_of_string_opt v with
              | Some w when w > 0.0 && Float.is_finite w -> Ok (Some w)
              | _ ->
                  Error
                    (Printf.sprintf "timeline: window=%S is not a positive \
                                     number of nanoseconds" v))
        in
        Ok { t with timeline = Some { base = out; window_ns } }
    | "scope" ->
        let* () = known [ "out" ] in
        Ok { t with scope = Some out }
    | other ->
        Error
          (Printf.sprintf
             "unknown observe clause %S (expected metrics, trace, profile, \
              timeline or scope)"
             other)

let parse s =
  let s = String.trim s in
  if s = "" || String.lowercase_ascii s = "none" then Ok none
  else
    List.fold_left
      (fun acc clause ->
        let* t = acc in
        apply t (String.trim clause))
      (Ok none)
      (String.split_on_char '+' s)

(* Shortest rendering that parses back to the same float; '+' is the
   clause separator, so exponents render without it. *)
let float_string v =
  let short = Printf.sprintf "%g" v in
  let s = if float_of_string short = v then short else Printf.sprintf "%.17g" v in
  String.concat "" (String.split_on_char '+' s)

let to_string t =
  let clause name kvs =
    match List.filter_map Fun.id kvs with
    | [] -> name
    | kvs -> name ^ ":" ^ String.concat "," kvs
  in
  let out = Option.map (fun f -> "out=" ^ f) in
  let rendered =
    List.filter_map Fun.id
      [
        Option.map (fun f -> clause "metrics" [ out (Some f) ]) t.metrics;
        Option.map (fun f -> clause "trace" [ out (Some f) ]) t.trace;
        Option.map
          (fun p ->
            clause "profile"
              [
                out p.folded;
                (if p.tail_k = default_profile.tail_k then None
                 else Some (Printf.sprintf "tail=%d" p.tail_k));
              ])
          t.profile;
        Option.map
          (fun tl ->
            clause "timeline"
              [
                out tl.base;
                Option.map (fun w -> "window=" ^ float_string w) tl.window_ns;
              ])
          t.timeline;
        Option.map (fun base -> clause "scope" [ out base ]) t.scope;
      ]
  in
  if rendered = [] then "none" else String.concat "+" rendered

let check ~honours t =
  match List.filter (fun c -> not (List.mem c honours)) (clauses t) with
  | [] -> Ok ()
  | bad ->
      Error
        (Printf.sprintf "--observe %s: this command cannot honour %s"
           (to_string t) (String.concat ", " bad))

(* ------------------------------------------------------------------ *)
(* Recording *)

let series t ~slo_ns ~horizon_ns =
  Option.map
    (fun tl ->
      let window_ns =
        match tl.window_ns with
        | Some w -> w
        | None -> if horizon_ns > 0.0 then horizon_ns /. 32.0 else 1e5
      in
      Obs.Series.builder ~window_ns ~slo_ns ~horizon_ns ())
    t.timeline

type serving = {
  series : Obs.Series.builder;
  arrivals : float array;
  done_at : float array;
}

let with_recorder with_recording recorder body =
  match recorder with None -> body | Some x -> fun () -> with_recording x body

(* Busy lanes come from the machines' sync spans; arrivals and
   deliveries are replayed from the timestamp arrays.  Simulated-time
   data only, so the series is identical at any worker count.  Losses
   and failover actions were noted live by the run. *)
let finish_timeline s ~spans ~scope (r : Run_result.t) =
  let b = s.series in
  List.iter
    (fun (sp : Simcore.Trace.span) ->
      if sp.Simcore.Trace.label = "busy" then
        Obs.Series.note_busy b ~lane:sp.Simcore.Trace.lane ~t0:sp.Simcore.Trace.t0
          ~t1:sp.Simcore.Trace.t1)
    (Simcore.Trace.spans spans);
  Array.iteri
    (fun i at ->
      Obs.Series.note_arrival b ~at;
      if s.done_at.(i) >= 0.0 then
        Obs.Series.note_delivery b ~arrived:at ~finished:s.done_at.(i))
    s.arrivals;
  (* Each node's L2 partition residency as a gauge lane, so the timeline
     shows the index being evicted (and re-warmed) in place. *)
  Option.iter
    (fun sc ->
      List.iter
        (fun node ->
          let lane = "resid:" ^ Obs.Cachescope.node_name node in
          List.iter
            (fun (at, readings) ->
              Array.iter
                (fun (level, region, frac) ->
                  if level = "L2" && region = "partition" then
                    Obs.Series.note_gauge b ~lane ~at frac)
                readings)
            (Obs.Cachescope.samples node))
        (Obs.Cachescope.nodes sc))
    scope;
  let series = Obs.Series.finish b in
  (match r.Run_result.serving with
  | Some sv ->
      let completed =
        Array.fold_left
          (fun acc w -> acc + w.Obs.Series.completed)
          0 series.Obs.Series.windows
      in
      if completed <> sv.Run_result.completed then
        failwith
          (Printf.sprintf
             "Observe: timeline of %s/%s completes %d queries, serving \
              rollup %d"
             (Methods.to_string r.Run_result.method_id)
             r.Run_result.scenario completed sv.Run_result.completed)
  | None -> ());
  series

(* Conservation is an invariant, not a best effort: a run whose books do
   not balance is a bug in a charge hook, so fail loudly rather than
   ship an unbalanced profile. *)
let close_profile p (r : Run_result.t) =
  Obs.Profile.finalize p ~total_ns:r.Run_result.raw_ns;
  if not (Obs.Profile.conserved p) then
    failwith
      (Printf.sprintf
         "Observe: profile not conserved for %s/%s: attributed %.17g vs \
          total %.17g"
         (Methods.to_string r.Run_result.method_id)
         r.Run_result.scenario (Obs.Profile.attributed_ns p)
         r.Run_result.raw_ns)

let record ?serving t body =
  if is_none t then body ()
  else begin
    if Option.is_some t.timeline && Option.is_none serving then
      invalid_arg "Observe.record: a timeline clause needs a serving run";
    let profile =
      Option.map (fun p -> Obs.Profile.create ~tail_k:p.tail_k ()) t.profile
    in
    let scope = Option.map (fun _ -> Obs.Cachescope.create ()) t.scope in
    let trace = Option.map (fun _ -> Simcore.Trace.create ()) t.trace in
    (* A timeline without a trace clause reads its busy lanes from the
       caller's tracer when one is installed, else from a private one. *)
    let spans =
      if Option.is_some trace || Option.is_none serving then trace
      else
        Some
          (Option.value (Simcore.Trace.current ())
             ~default:(Simcore.Trace.create ()))
    in
    (* Profile outermost: it closes against the finished run's raw_ns. *)
    let r =
      (with_recorder Obs.Profile.with_recording profile
         (with_recorder Obs.Cachescope.with_recording scope
            (with_recorder Simcore.Trace.with_recording spans body)))
        ()
    in
    let timeline =
      match (serving, spans) with
      | Some s, Some spans -> Some (finish_timeline s ~spans ~scope r)
      | _ -> r.Run_result.timeline
    in
    Option.iter (fun p -> close_profile p r) profile;
    let keep mine theirs = if Option.is_some mine then mine else theirs in
    {
      r with
      Run_result.trace = keep trace r.Run_result.trace;
      profile = keep profile r.Run_result.profile;
      scope = keep scope r.Run_result.scope;
      timeline;
    }
  end

(* ------------------------------------------------------------------ *)
(* Timeline renderings *)

let master_lane lane =
  String.length lane >= 6 && String.sub lane 0 6 = "master"

(* Events pinned to window [i]: at in [t0, t1), with anything at or
   past the final boundary clamped into the last window so a crash
   scheduled exactly at the horizon still shows. *)
let window_events (t : Obs.Series.t) i =
  let n = Array.length t.Obs.Series.windows in
  List.filter
    (fun (e : Obs.Series.event) ->
      let j =
        min (n - 1)
          (max 0 (int_of_float (Float.floor (e.at_ns /. t.Obs.Series.window_ns))))
      in
      j = i)
    t.Obs.Series.events

let timeline_header =
  [
    "method"; "scenario"; "window"; "t0_ns"; "t1_ns"; "offered"; "completed";
    "offered_qps"; "achieved_qps"; "mean_ns"; "p50_ns"; "p95_ns"; "p99_ns";
    "queue_depth"; "master_busy_frac"; "slave_busy_frac"; "violations";
    "burn_rate"; "retries"; "redispatches"; "lost"; "fallbacks"; "events";
  ]

let timeline_rows (run : Run_result.t) =
  match run.Run_result.timeline with
  | None -> []
  | Some t ->
      let lanes = Obs.Series.lanes t in
      let masters = List.filter master_lane lanes in
      let slaves = List.filter (fun l -> not (master_lane l)) lanes in
      (* Busy fraction of a node class inside one window: summed busy
         nanoseconds over (window width x class size). *)
      let class_frac (w : Obs.Series.window) cls =
        match cls with
        | [] -> 0.0
        | _ ->
            List.fold_left
              (fun acc lane ->
                acc +. try List.assoc lane w.Obs.Series.busy with Not_found -> 0.0)
              0.0 cls
            /. (t.Obs.Series.window_ns *. float_of_int (List.length cls))
      in
      Array.to_list
        (Array.map
           (fun (w : Obs.Series.window) ->
             let p50, p95, p99 = Obs.Hist.quantiles w.Obs.Series.latency in
             [
               Methods.to_string run.Run_result.method_id;
               run.Run_result.scenario;
               string_of_int w.Obs.Series.index;
               Printf.sprintf "%.0f" w.Obs.Series.t0_ns;
               Printf.sprintf "%.0f" w.Obs.Series.t1_ns;
               string_of_int w.Obs.Series.offered;
               string_of_int w.Obs.Series.completed;
               Printf.sprintf "%.1f" (Obs.Series.offered_qps t w);
               Printf.sprintf "%.1f" (Obs.Series.achieved_qps t w);
               Printf.sprintf "%.1f" (Obs.Hist.mean w.Obs.Series.latency);
               Printf.sprintf "%.1f" p50;
               Printf.sprintf "%.1f" p95;
               Printf.sprintf "%.1f" p99;
               string_of_int w.Obs.Series.queue_depth;
               Printf.sprintf "%.4f" (class_frac w masters);
               Printf.sprintf "%.4f" (class_frac w slaves);
               string_of_int w.Obs.Series.violations;
               Printf.sprintf "%.4f" (Obs.Series.burn_rate t w);
               string_of_int w.Obs.Series.retries;
               string_of_int w.Obs.Series.redispatches;
               string_of_int w.Obs.Series.lost;
               string_of_int w.Obs.Series.fallbacks;
               String.concat ";"
                 (List.map
                    (fun (e : Obs.Series.event) -> e.Obs.Series.label)
                    (window_events t w.Obs.Series.index));
             ])
           t.Obs.Series.windows)

let timeline_csv_lines runs =
  String.concat "," timeline_header
  :: List.concat_map
       (fun r -> List.map (String.concat ",") (timeline_rows r))
       runs

let render_timeline runs =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (run : Run_result.t) ->
      match run.Run_result.timeline with
      | None -> ()
      | Some t ->
          let ws = t.Obs.Series.windows in
          let metric f = Array.map f ws in
          let qd =
            metric (fun (w : Obs.Series.window) ->
                float_of_int w.Obs.Series.queue_depth)
          in
          Buffer.add_string buf
            (Printf.sprintf
               "method %s timeline: %d windows of %s%s\n"
               (Methods.to_string run.Run_result.method_id)
               (Array.length ws)
               (Simcore.Simtime.to_string t.Obs.Series.window_ns)
               (match Obs.Series.knee t with
               | None -> ""
               | Some k ->
                   Printf.sprintf ", saturation knee at window %d" k));
          List.iter
            (fun (label, values) ->
              Buffer.add_string buf (Report.Ascii_plot.heat_row ~label values);
              Buffer.add_char buf '\n')
            [
              ("offered_qps", metric (Obs.Series.offered_qps t));
              ("achieved_qps", metric (Obs.Series.achieved_qps t));
              ( "p95_ns",
                metric (fun (w : Obs.Series.window) ->
                    Obs.Hist.quantile w.Obs.Series.latency 0.95) );
              ("queue_depth", qd);
              ("burn_rate", metric (Obs.Series.burn_rate t));
            ];
          (* One heat row per node lane, all on a shared 0..window scale
             so master saturation reads against slave idleness. *)
          List.iter
            (fun lane ->
              let busy =
                metric (fun (w : Obs.Series.window) ->
                    try List.assoc lane w.Obs.Series.busy
                    with Not_found -> 0.0)
              in
              Buffer.add_string buf
                (Report.Ascii_plot.heat_row ~label:("busy " ^ lane) ~v_min:0.0
                   ~v_max:t.Obs.Series.window_ns busy);
              Buffer.add_char buf '\n')
            (Obs.Series.lanes t);
          (* Coalesce consecutive same-label events (a redispatch storm
             is one line with a count, not one line per batch). *)
          let rec emit = function
            | [] -> ()
            | (e : Obs.Series.event) :: rest ->
                let rec same n = function
                  | (x : Obs.Series.event) :: tl when x.label = e.label ->
                      same (n + 1) tl
                  | tl -> (n, tl)
                in
                let n, rest = same 1 rest in
                Printf.bprintf buf "  event @ %s: %s%s\n"
                  (Simcore.Simtime.to_string e.Obs.Series.at_ns)
                  e.Obs.Series.label
                  (if n = 1 then "" else Printf.sprintf " (x%d)" n);
                emit rest
          in
          emit t.Obs.Series.events;
          Buffer.add_char buf '\n')
    runs;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Output *)

(* The labelled runs carrying one recorder's reading. *)
let carrying get runs =
  List.filter_map (fun (label, r) -> Option.map (fun x -> (label, x)) (get r)) runs

let report t runs =
  let section on text = if on && text <> "" then "\n" ^ text else "" in
  section (t.timeline <> None)
    (render_timeline (List.map snd runs))
  ^ section (t.profile <> None)
      (String.concat "\n"
         (List.map
            (fun (label, p) -> Obs.Profile.render ~label p)
            (carrying (fun r -> r.Run_result.profile) runs)))
  ^ section (t.scope <> None)
      (Scope_report.render (carrying (fun r -> r.Run_result.scope) runs))

let write_lines path lines =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun l ->
          Out_channel.output_string oc l;
          Out_channel.output_char oc '\n')
        lines)

let export t ~generator ~fields runs =
  let document key to_json get =
    Telemetry.runs_document ~generator ~fields ~key
      (List.map (fun (label, x) -> (label, to_json x)) (carrying get runs))
  in
  let file path write = write path; [ path ] in
  let pair base csv json =
    file (base ^ ".csv") (fun p ->
        Out_channel.with_open_text p (fun oc -> Out_channel.output_string oc csv))
    @ file (base ^ ".json") (fun p -> Telemetry.write_json p json)
  in
  let some o f = match o with Some x -> f x | None -> [] in
  List.concat
    [
      some t.metrics (fun path ->
          file path (fun p ->
              Telemetry.write_json p
                (document "metrics" Obs.Metrics.Snapshot.to_json (fun r ->
                     Some r.Run_result.metrics))));
      some t.trace (fun path ->
          file path (fun p ->
              Telemetry.write_json p
                (Simcore.Trace.combined_trace_event_json
                   (carrying (fun r -> r.Run_result.trace) runs))));
      some (Option.bind t.profile (fun p -> p.folded)) (fun path ->
          file path (fun p ->
              write_lines p
                (List.concat_map
                   (fun (label, prof) ->
                     Obs.Profile.folded_lines ~prefix:label prof)
                   (carrying (fun r -> r.Run_result.profile) runs))));
      some (Option.bind t.timeline (fun tl -> tl.base)) (fun base ->
          pair base
            (String.concat ""
               (List.map (fun l -> l ^ "\n")
                  (timeline_csv_lines (List.map snd runs))))
            (document "timeline" Obs.Series.to_json (fun r ->
                 r.Run_result.timeline)));
      some (Option.join t.scope) (fun base ->
          pair base
            (Scope_report.csv (carrying (fun r -> r.Run_result.scope) runs))
            (document "cachescope" Obs.Cachescope.to_json (fun r ->
                 r.Run_result.scope)));
    ]
