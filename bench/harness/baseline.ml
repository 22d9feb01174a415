(* Benchmark baseline gate: capture the simulated cost of a small,
   deterministic sweep into a committed JSON file, and compare later
   runs against it bit-for-bit.  The simulator is deterministic, so any
   drift — even one ULP of per-key cost — means a cost model changed,
   deliberately or not. *)

open Dispatch

type entry = {
  key : string;
  method_id : string;
  scenario : string;
  batch_bytes : int;
  per_key_ns : float;
  raw_ns : float;
  messages : int;
  bytes_sent : int;
}

type drift = {
  drift_key : string;
  field : string;
  expected : string;
  actual : string;
}

let of_run (r : Run_result.t) =
  {
    key = Telemetry.run_label r;
    method_id = Methods.to_string r.Run_result.method_id;
    scenario = r.Run_result.scenario;
    batch_bytes = r.Run_result.batch_bytes;
    per_key_ns = r.Run_result.per_key_ns;
    raw_ns = r.Run_result.raw_ns;
    messages = r.Run_result.messages;
    bytes_sent = r.Run_result.bytes_sent;
  }

(* The gated sweep: CI scenario, every method, three batch sizes
   spanning the Figure 3 grid.  Small enough to run on every push,
   wide enough that every cost model (cache, network, each index
   structure) contributes to at least one cell. *)
let batches = [ 8 * 1024; 128 * 1024; 1024 * 1024 ]

let default_spec ~jobs =
  Experiment.Spec.default
  |> Experiment.Spec.with_scenario Workload.Scenario.ci
  |> Experiment.Spec.with_batches batches
  |> Experiment.Spec.with_jobs jobs

(* Serving cell of the gate: the CI workload pushed through the
   open-loop serve driver, so queueing/SLO cost models are gated too.
   The scenario is renamed so its run_label keys can never collide
   with the fig3 cells (both families share one key space). *)
let serve_spec ~jobs =
  let sc =
    Workload.Scenario.ci
    |> Workload.Scenario.with_name "ci-serve"
    |> Workload.Scenario.with_duration 2e6
    |> Workload.Scenario.with_clients 4
  in
  Experiment.Spec.default
  |> Experiment.Spec.with_scenario sc
  |> Experiment.Spec.with_methods [ Methods.A; Methods.B; Methods.C3 ]
  |> Experiment.Spec.with_arrival (Workload.Arrival.poisson 2e5)
  |> Experiment.Spec.with_slo 1e6
  |> Experiment.Spec.with_jobs jobs

(* The runs of [grid spec], in cell order. *)
let grid_runs spec grid =
  match Experiment.run_grid spec (grid spec) with
  | Ok (_, runs) -> List.map snd runs
  | Error msg -> invalid_arg msg

let guarded (r : Run_result.t) =
  if r.Run_result.validation_errors > 0 then
    failwith
      (Printf.sprintf "Baseline.capture: %s has %d validation errors"
         (Telemetry.run_label r) r.Run_result.validation_errors);
  of_run r

(* Protocol-variant cells: every shape of the Method C protocol that the
   grid above leaves out — the router tier, two masters in batch and
   serving mode, serving under replay-class faults, and dynamic update
   forwarding across a slave crash — plus the replicated methods over a
   moving index: batch A and B at 0.1 updates/query and dynamic serving
   for A.  Each scenario gets its own name so the keys stay distinct. *)
let variant_entries ~spec =
  let jobs = spec.Experiment.Spec.jobs in
  let sc = spec.Experiment.Spec.scenario in
  let renamed suffix =
    Workload.Scenario.with_name (sc.Workload.Scenario.name ^ suffix) sc
  in
  let c3 = Methods.C3 in
  let keys, queries = Runner.workload sc in
  let parse_exn parse s =
    match parse s with Ok v -> v | Error e -> invalid_arg e
  in
  let hier = Runner.run ~routers:2 sc ~method_id:c3 ~keys ~queries in
  let two_masters =
    Runner.run
      (Workload.Scenario.with_masters 2 (renamed "-2m"))
      ~method_id:c3 ~keys ~queries
  in
  let serve ?(methods = [ c3 ]) name refine =
    let spec = serve_spec ~jobs in
    let sc = spec.Experiment.Spec.scenario |> Workload.Scenario.with_name name in
    grid_runs
      (spec
      |> Experiment.Spec.with_scenario sc
      |> Experiment.Spec.with_methods methods
      |> refine)
      (Experiment.serve ~loads:[])
  in
  let serve_two_masters =
    serve "ci-serve-2m" (fun spec ->
        Experiment.Spec.with_scenario
          (Workload.Scenario.with_masters 2 spec.Experiment.Spec.scenario)
          spec)
  in
  let serve_faulted =
    serve "ci-serve-faulted"
      (Experiment.Spec.with_faults
         (parse_exn Fault.Spec.parse "drop:p=0.02+slow:node=2,factor=4"))
  in
  let updates = parse_exn Workload.Mutation.parse "0.1" in
  let dynamic_crash, _ =
    Dynamic.run
      ~faults:(parse_exn Fault.Spec.parse "crash:node=3,at=1e6")
      (renamed "-dyn-crash") ~updates ~method_id:c3
  in
  let dynamic_replicated =
    List.map
      (fun method_id -> fst (Dynamic.run (renamed "-dyn") ~updates ~method_id))
      [ Methods.A; Methods.B ]
  in
  let serve_dynamic =
    serve ~methods:[ Methods.A ] "ci-serve-dyn"
      (Experiment.Spec.with_updates
         (parse_exn Workload.Mutation.parse "mix:ratio=0.2,inserts=0.6"))
  in
  List.map guarded
    ((hier :: two_masters :: serve_two_masters)
    @ serve_faulted @ (dynamic_crash :: dynamic_replicated) @ serve_dynamic)

let capture ~spec =
  List.map guarded
    (grid_runs spec Experiment.fig3
    @ grid_runs
        (serve_spec ~jobs:spec.Experiment.Spec.jobs)
        (Experiment.serve ~loads:[]))
  @ variant_entries ~spec

(* ------------------------------------------------------------------ *)
(* JSON round trip *)

let entry_to_json e =
  Obs.Json.Obj
    [
      ("key", Obs.Json.String e.key);
      ("method", Obs.Json.String e.method_id);
      ("scenario", Obs.Json.String e.scenario);
      ("batch_bytes", Obs.Json.Int e.batch_bytes);
      ("per_key_ns", Obs.Json.Float e.per_key_ns);
      ("raw_ns", Obs.Json.Float e.raw_ns);
      ("messages", Obs.Json.Int e.messages);
      ("bytes_sent", Obs.Json.Int e.bytes_sent);
    ]

let manifest ~spec =
  let sc = spec.Experiment.Spec.scenario in
  Obs.Manifest.create ~generator:"bench --save-baseline"
    (Telemetry.manifest_fields sc ~methods:spec.Experiment.Spec.methods
       ~batches:spec.Experiment.Spec.batches)

let to_json ~spec entries =
  Obs.Json.Obj
    [
      ("manifest", Obs.Manifest.to_json (manifest ~spec));
      ("entries", Obs.Json.List (List.map entry_to_json entries));
    ]

let field name j =
  match Obs.Json.member name j with
  | Some v -> v
  | None -> failwith (Printf.sprintf "missing field %S" name)

let entry_of_json j =
  {
    key = Obs.Json.to_string_exn (field "key" j);
    method_id = Obs.Json.to_string_exn (field "method" j);
    scenario = Obs.Json.to_string_exn (field "scenario" j);
    batch_bytes = Obs.Json.to_int_exn (field "batch_bytes" j);
    per_key_ns = Obs.Json.to_float_exn (field "per_key_ns" j);
    raw_ns = Obs.Json.to_float_exn (field "raw_ns" j);
    messages = Obs.Json.to_int_exn (field "messages" j);
    bytes_sent = Obs.Json.to_int_exn (field "bytes_sent" j);
  }

(* A document without a manifest, or with another manifest schema, is
   refused rather than half-read. *)
let of_json j =
  match Obs.Json.member "manifest" j with
  | None -> Error "no \"manifest\" member"
  | Some manifest -> (
      match Obs.Json.member "schema_version" manifest with
      | Some (Obs.Json.Int v) when v = Obs.Manifest.schema_version -> (
          match Obs.Json.member "entries" j with
          | Some (Obs.Json.List records) -> (
              try Ok (List.map entry_of_json records)
              with Failure m -> Error m)
          | Some _ -> Error "\"entries\" is not a list"
          | None -> Error "no \"entries\" member")
      | _ ->
          Error
            (Printf.sprintf "manifest schema_version is not %d"
               Obs.Manifest.schema_version))

let load path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  match Obs.Json.of_string text with
  | Error e -> Error (Printf.sprintf "%s: %s" path e)
  | Ok j -> of_json j

let save ~path ~spec entries =
  Telemetry.write_json path (to_json ~spec entries)

(* ------------------------------------------------------------------ *)
(* Comparison *)

(* Exact comparisons throughout: the sweep is deterministic, so the
   committed floats must reproduce bit-for-bit.  Strings carry the
   shortest round-tripping form, so expected/actual read identically in
   the drift report iff they are equal. *)
let diff ~(expected : entry) ~(actual : entry) =
  let f name fmt a b acc =
    if a = b then acc
    else
      { drift_key = expected.key; field = name; expected = fmt a; actual = fmt b }
      :: acc
  in
  []
  |> f "bytes_sent" string_of_int expected.bytes_sent actual.bytes_sent
  |> f "messages" string_of_int expected.messages actual.messages
  |> f "raw_ns" Obs.Json.float_to_string expected.raw_ns actual.raw_ns
  |> f "per_key_ns" Obs.Json.float_to_string expected.per_key_ns
       actual.per_key_ns

let compare_entries ~expected ~actual =
  let tbl = Hashtbl.create 64 in
  List.iter (fun e -> Hashtbl.replace tbl e.key e) expected;
  let drifts =
    List.concat_map
      (fun (a : entry) ->
        match Hashtbl.find_opt tbl a.key with
        | None ->
            [
              {
                drift_key = a.key;
                field = "(entry)";
                expected = "absent from baseline";
                actual = "present";
              };
            ]
        | Some e ->
            Hashtbl.remove tbl a.key;
            diff ~expected:e ~actual:a)
      actual
  in
  let missing =
    List.filter_map
      (fun (e : entry) ->
        if Hashtbl.mem tbl e.key then
          Some
            {
              drift_key = e.key;
              field = "(entry)";
              expected = "present";
              actual = "missing from run";
            }
        else None)
      expected
  in
  drifts @ missing

let render_drift = function
  | [] -> "baseline: OK (no drift)"
  | drifts ->
      let buf = Buffer.create 256 in
      Buffer.add_string buf
        (Printf.sprintf "baseline: DRIFT in %d field(s)\n"
           (List.length drifts));
      List.iter
        (fun d ->
          Buffer.add_string buf
            (Printf.sprintf "  %-28s %-12s expected %s, got %s\n" d.drift_key
               d.field d.expected d.actual))
        drifts;
      Buffer.add_string buf
        "re-capture with --save-baseline if the change is intentional";
      Buffer.contents buf

let check ~path ~spec =
  let expected =
    match load path with
    | Ok entries -> entries
    | Error e -> failwith (Printf.sprintf "Baseline: %s: %s" path e)
  in
  let actual = capture ~spec in
  compare_entries ~expected ~actual
