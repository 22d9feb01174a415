(* Shared Cmdliner vocabulary for the executables: every flag folds into
   a single [Dispatch.Experiment.Spec.t], so `repro` and `bench` accept
   the same spelling for the same knob and unknown flags are rejected by
   Cmdliner in both. *)

open Cmdliner
module Spec = Dispatch.Experiment.Spec

let kib n = n * 1024

let scale_arg =
  let doc =
    "Workload scale: 'paper' (2^23 queries, as published), 'scaled' (2^21 \
     queries, same per-key results, default) or 'ci' (tiny smoke test)."
  in
  Arg.(value & opt string "scaled" & info [ "scale" ] ~docv:"SCALE" ~doc)

let queries_arg =
  let doc = "Override the number of search keys (queries)." in
  Arg.(value & opt (some int) None & info [ "queries" ] ~docv:"N" ~doc)

let keys_arg =
  let doc = "Override the number of indexed keys." in
  Arg.(value & opt (some int) None & info [ "keys" ] ~docv:"N" ~doc)

let nodes_arg =
  let doc = "Override the cluster size (including the master)." in
  Arg.(value & opt (some int) None & info [ "nodes" ] ~docv:"N" ~doc)

let batch_arg =
  let doc = "Override the batch/message size in KB." in
  Arg.(value & opt (some int) None & info [ "batch" ] ~docv:"KB" ~doc)

let batches_arg =
  let doc =
    "Restrict a batch sweep (fig3) to this comma-separated list of \
     batch/message sizes in KB, e.g. '64,128,256'."
  in
  let parse s =
    let parts = String.split_on_char ',' s in
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | p :: rest -> (
          match int_of_string_opt (String.trim p) with
          | Some kb when kb > 0 -> go (kib kb :: acc) rest
          | Some _ | None ->
              Error (`Msg (Printf.sprintf "bad batch size %S (KB)" p)))
    in
    go [] parts
  in
  let print fmt bs =
    Format.pp_print_string fmt
      (String.concat "," (List.map (fun b -> string_of_int (b / 1024)) bs))
  in
  Arg.(
    value
    & opt (some (conv (parse, print))) None
    & info [ "batches" ] ~docv:"KBS" ~doc)

let masters_arg =
  let doc = "Number of master nodes for Method C (paper: 1)." in
  Arg.(value & opt (some int) None & info [ "masters" ] ~docv:"N" ~doc)

let network_arg =
  let doc = "Network profile: myrinet | gige | fast-ethernet." in
  Arg.(value & opt string "myrinet" & info [ "network" ] ~docv:"NET" ~doc)

let seed_arg =
  let doc = "Workload seed." in
  Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"SEED" ~doc)

let jobs_arg =
  let doc =
    "Worker domains for simulation sweeps (default: available cores minus \
     one, at least 1).  Results are byte-identical at any value."
  in
  Arg.(
    value
    & opt int (Exec.default_jobs ())
    & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let methods_arg =
  let doc = "Comma-separated methods to run (A,B,C-1,C-2,C-3)." in
  let parse s =
    let parts = String.split_on_char ',' s in
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | p :: rest -> (
          match Dispatch.Methods.of_string (String.trim p) with
          | Some m -> go (m :: acc) rest
          | None -> Error (`Msg (Printf.sprintf "unknown method %S" p)))
    in
    go [] parts
  in
  let print fmt ms =
    Format.pp_print_string fmt
      (String.concat "," (List.map Dispatch.Methods.to_string ms))
  in
  Arg.(
    value
    & opt (conv (parse, print)) []
    & info [ "methods" ] ~docv:"METHODS" ~doc)

let csv_arg =
  let doc = "Also write raw results to $(docv)." in
  Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc)

let observe_arg =
  let doc =
    "Observation session: 'none' (default) or '+'-joined clauses \
     metrics:out=FILE | trace:out=FILE | profile[:out=FILE,tail=K] | \
     timeline[:out=BASE,window=NS] | scope[:out=BASE].  metrics writes a \
     manifest-headed metrics JSON file; trace writes Chrome trace_event \
     JSON (ui.perfetto.dev); profile prints each run's cost tree with its \
     K slowest queries (default 8); timeline (serve only) prints a \
     windowed timeline of each serving run (window default: 1/32 of the \
     horizon); scope prints the cache microscope (3C misses, reuse \
     distances, residency, set pressure).  Without out= a clause prints \
     only; with out=, profile also writes collapsed-stack flamegraph \
     lines and timeline and scope write BASE.csv and BASE.json.  A clause \
     the command cannot honour is a usage error.  Every file is \
     byte-identical at any --jobs value; set SOURCE_DATE_EPOCH for \
     byte-reproducible manifests."
  in
  let observe_conv =
    Arg.conv
      ( (fun s ->
          match Dispatch.Observe.parse s with
          | Ok t -> Ok t
          | Error msg -> Error (`Msg msg)),
        fun fmt t -> Format.pp_print_string fmt (Dispatch.Observe.to_string t)
      )
  in
  Arg.(
    value
    & opt observe_conv Dispatch.Observe.none
    & info [ "observe" ] ~docv:"SPEC" ~doc)

let faults_arg =
  let doc =
    "Fault-injection spec for Method C family runs: 'none' (default) or \
     '+'-joined clauses drop:p=P | dup:p=P | delay:p=P,ns=NS | \
     degrade:node=N,factor=F | crash:node=N,at=NS | slow:node=N,factor=F \
     | failover:timeout=NS,retries=K,fallback=local|none | seed=N.  \
     E.g. 'crash:node=3,at=2e6+failover:retries=3'.  Degraded runs are \
     deterministic: byte-identical at any --jobs value."
  in
  let spec_conv =
    Arg.conv
      ( (fun s ->
          match Fault.Spec.parse s with
          | Ok spec -> Ok spec
          | Error msg -> Error (`Msg msg)),
        fun fmt spec -> Format.pp_print_string fmt (Fault.Spec.to_string spec)
      )
  in
  Arg.(
    value & opt spec_conv Fault.Spec.none & info [ "faults" ] ~docv:"SPEC" ~doc)

let arrival_arg =
  let doc =
    "Arrival process for 'serve': poisson:rate=QPS (shorthand \
     poisson:QPS) | mmpp:rate=QPS,burst=F,on=NS,off=NS | \
     diurnal:rate=QPS,peak=F,period=NS | replay:path=FILE (shorthand \
     replay:FILE).  Deterministic for a given scenario seed."
  in
  let arrival_conv =
    Arg.conv
      ( (fun s ->
          match Workload.Arrival.parse s with
          | Ok a -> Ok a
          | Error msg -> Error (`Msg msg)),
        fun fmt a ->
          Format.pp_print_string fmt (Workload.Arrival.to_string a) )
  in
  Arg.(
    value
    & opt (some arrival_conv) None
    & info [ "arrival" ] ~docv:"SPEC" ~doc)

let slo_arg =
  let doc =
    "Response-time budget for 'serve' SLO accounting, in simulated \
     nanoseconds (default 1e6 = 1 ms)."
  in
  Arg.(value & opt (some float) None & info [ "slo" ] ~docv:"NS" ~doc)

let duration_arg =
  let doc =
    "Serving horizon in simulated nanoseconds: arrivals are generated in \
     [0, NS)."
  in
  Arg.(value & opt (some float) None & info [ "duration" ] ~docv:"NS" ~doc)

let offered_load_arg =
  let doc =
    "Rescale the arrival process to this time-average offered load \
     (queries per second)."
  in
  Arg.(
    value & opt (some float) None & info [ "offered-load" ] ~docv:"QPS" ~doc)

let clients_arg =
  let doc = "Simulated client populations feeding the arrival process." in
  Arg.(value & opt (some int) None & info [ "clients" ] ~docv:"N" ~doc)

let updates_arg =
  let doc =
    "Update stream for the dynamic-index experiments: 'none' (default), \
     a bare ratio like '0.2' (updates per query), or \
     mix:ratio=R,inserts=F,segment=N,threshold=K,major=F with the \
     insert fraction and the log-structured merge-policy knobs \
     (segment capacity, size-tier merge threshold, major-compaction \
     fraction).  E.g. 'mix:ratio=0.1,inserts=0.7,segment=128'."
  in
  let updates_conv =
    Arg.conv
      ( (fun s ->
          match Workload.Mutation.parse s with
          | Ok u -> Ok u
          | Error msg -> Error (`Msg msg)),
        fun fmt u ->
          Format.pp_print_string fmt (Workload.Mutation.to_string u) )
  in
  Arg.(
    value
    & opt updates_conv Workload.Mutation.none
    & info [ "updates" ] ~docv:"SPEC" ~doc)

(* Apply an optional override; absent flags leave the value untouched. *)
let override v f x = match v with Some v -> f v x | None -> x

let spec_term =
  let build scale queries keys nodes masters batch batches network seed jobs
      methods observe faults arrival slo duration offered_load clients updates
      =
    let base =
      match String.lowercase_ascii scale with
      | "paper" -> Ok Workload.Scenario.paper
      | "scaled" -> Ok Workload.Scenario.scaled
      | "ci" -> Ok Workload.Scenario.ci
      | other -> Error (`Msg (Printf.sprintf "unknown scale %S" other))
    in
    let net =
      match String.lowercase_ascii network with
      | "myrinet" -> Ok Netsim.Profile.myrinet
      | "gige" | "gigabit" | "gigabit-ethernet" ->
          Ok Netsim.Profile.gigabit_ethernet
      | "fast-ethernet" | "ethernet" -> Ok Netsim.Profile.fast_ethernet
      | other -> Error (`Msg (Printf.sprintf "unknown network %S" other))
    in
    (* Reject out-of-range values here, as usage errors, before any run
       starts. *)
    let positive flag unit = function
      | Some v when not (v > 0.0 && Float.is_finite v) ->
          Some (Printf.sprintf "--%s must be a positive number of %s, got %g"
                  flag unit v)
      | _ -> None
    in
    let at_least_one flag = function
      | Some v when v < 1 ->
          Some (Printf.sprintf "--%s must be at least 1, got %d" flag v)
      | _ -> None
    in
    let bad =
      List.find_map Fun.id
        [
          positive "batch" "KB" (Option.map float_of_int batch);
          positive "slo" "nanoseconds" slo;
          positive "duration" "nanoseconds" duration;
          positive "offered-load" "queries per second" offered_load;
          at_least_one "queries" queries;
          at_least_one "keys" keys;
          at_least_one "nodes" nodes;
          at_least_one "masters" masters;
          at_least_one "clients" clients;
        ]
    in
    match (base, net, bad) with
    | Error e, _, _ | _, Error e, _ -> Error e
    | _, _, Some msg -> Error (`Msg msg)
    | Ok sc, Ok net, None ->
        let sc =
          sc
          |> Workload.Scenario.with_net net
          |> override queries Workload.Scenario.with_queries
          |> override keys Workload.Scenario.with_keys
          |> override nodes Workload.Scenario.with_nodes
          |> override masters Workload.Scenario.with_masters
          |> override batch (fun b sc -> Workload.Scenario.with_batch sc (kib b))
          |> override duration Workload.Scenario.with_duration
          |> override offered_load Workload.Scenario.with_offered_load
          |> override clients Workload.Scenario.with_clients
          |> override seed Workload.Scenario.with_seed
        in
        let selected =
          match methods with [] -> Spec.default.Spec.methods | ms -> ms
        in
        let n_nodes = sc.Workload.Scenario.n_nodes
        and n_masters = sc.Workload.Scenario.n_masters
        and n_keys = sc.Workload.Scenario.n_keys in
        let distributed = List.exists Dispatch.Methods.is_distributed selected in
        (* A fault must land on a node of the cluster. *)
        let stray_node =
          List.find_opt
            (fun node -> node >= n_nodes)
            (Option.to_list faults.Fault.Spec.degrade_node
            @ List.map fst faults.Fault.Spec.crashes
            @ List.map fst faults.Fault.Spec.slow)
        in
        (* Method C needs a slave beside its masters, and a key for every
           slave.  A one-master run (update forwarding, the masters
           ablation) partitions over [n_nodes - 1] slaves, the most any
           C-family run of this scenario uses. *)
        if distributed && n_nodes <= n_masters then
          Error
            (`Msg
              (Printf.sprintf
                 "--nodes (%d) must exceed --masters (%d) for the Method C \
                  family"
                 n_nodes n_masters))
        else if distributed && n_keys < n_nodes - 1 then
          Error
            (`Msg
              (Printf.sprintf
                 "--keys (%d) must be at least the Method C slave count (%d \
                  with --nodes %d)"
                 n_keys (n_nodes - 1) n_nodes))
        else
          match stray_node with
          | Some node ->
              Error
                (`Msg
                  (Printf.sprintf
                     "--faults names node %d, but the cluster's nodes are \
                      0..%d"
                     node (n_nodes - 1)))
          | None ->
              Ok
                (Spec.default
                |> Spec.with_scenario sc
                |> Spec.with_jobs jobs
                |> (match methods with
                   | [] -> Fun.id
                   | ms -> Spec.with_methods ms)
                |> Spec.with_observe observe
                |> Spec.with_faults faults
                |> override arrival Spec.with_arrival
                |> override slo Spec.with_slo
                |> override batches Spec.with_batches
                |> Spec.with_updates updates)
  in
  Term.(
    term_result ~usage:true
      (const build $ scale_arg $ queries_arg $ keys_arg $ nodes_arg
     $ masters_arg $ batch_arg $ batches_arg $ network_arg $ seed_arg
     $ jobs_arg $ methods_arg $ observe_arg $ faults_arg $ arrival_arg
     $ slo_arg $ duration_arg $ offered_load_arg $ clients_arg $ updates_arg))
