(* Shared Cmdliner vocabulary for the executables: one spec-updating term
   per flag, from which each `repro` subcommand builds the term of the
   flags it reads, so a flag it does not read is unknown to Cmdliner. *)

open Cmdliner
module Spec = Dispatch.Experiment.Spec
module Scenario = Workload.Scenario

type flag = (Spec.t -> Spec.t) Term.t

let kib n = n * 1024

(* ------------------------------------------------------------------ *)
(* Converters: out-of-range values are usage errors, before any run. *)

let count =
  Arg.conv'
    ( (fun s ->
        match int_of_string_opt s with
        | Some n when n >= 1 -> Ok n
        | Some n -> Error (Printf.sprintf "must be at least 1, got %d" n)
        | None -> Error (Printf.sprintf "invalid value %S, expected an integer" s)),
      Format.pp_print_int )

let positive =
  Arg.conv'
    ( (fun s ->
        match float_of_string_opt s with
        | Some v when v > 0.0 && Float.is_finite v -> Ok v
        | Some v -> Error (Printf.sprintf "must be a positive number, got %g" v)
        | None -> Error (Printf.sprintf "invalid value %S, expected a number" s)),
      Format.pp_print_float )

(* A case-insensitive name from [table]. *)
let named what table =
  Arg.conv'
    ( (fun s ->
        match List.assoc_opt (String.lowercase_ascii s) table with
        | Some v -> Ok v
        | None -> Error (Printf.sprintf "unknown %s %S" what s)),
      fun fmt v ->
        Format.pp_print_string fmt (fst (List.find (fun (_, v') -> v' == v) table)) )

(* A spec grammar with its own parser and printer. *)
let parsed parse print =
  Arg.conv' (parse, fun fmt v -> Format.pp_print_string fmt (print v))

let method_conv =
  parsed
    (fun s ->
      Option.to_result
        ~none:(Printf.sprintf "unknown method %S" s)
        (Dispatch.Methods.of_string (String.trim s)))
    Dispatch.Methods.to_string

(* A flag that updates the spec when given and leaves it as it is when
   absent. *)
let opt c name ~docv ~doc set : flag =
  Term.app
    (Term.const (fun v spec -> Option.fold ~none:spec ~some:(fun v -> set v spec) v))
    Arg.(value & opt (some c) None & info [ name ] ~docv ~doc)

(* A flag whose default always applies. *)
let with_default c default name ~docv ~doc set : flag =
  Term.app (Term.const set) Arg.(value & opt c default & info [ name ] ~docv ~doc)

let scenario set v spec = Spec.with_scenario (set v spec.Spec.scenario) spec

let scale_arg =
  let doc =
    "Workload scale: 'paper' (2^23 queries, as published), 'scaled' (2^21 \
     queries, default) or 'ci' (tiny smoke test).  A reduced run is not \
     the paper's run made cheaper: in the committed CSVs 'scaled' matches \
     'paper' within 0.04% for methods A and B, but C-3 drifts from 0.09% \
     at 8 KB to 58% at 4 MB, from the fill and drain of a finite stream; \
     measure a reduced run against the full one before relying on it."
  in
  Arg.(
    value
    & opt
        (named "scale" Scenario.[ ("paper", paper); ("scaled", scaled); ("ci", ci) ])
        Scenario.scaled
    & info [ "scale" ] ~docv:"SCALE" ~doc)

let queries =
  opt count "queries" ~docv:"N" ~doc:"Override the number of search keys (queries)."
    (scenario Scenario.with_queries)

let keys =
  opt count "keys" ~docv:"N" ~doc:"Override the number of indexed keys."
    (scenario Scenario.with_keys)

let nodes =
  opt count "nodes" ~docv:"N"
    ~doc:"Override the cluster size (including the master)."
    (scenario Scenario.with_nodes)

let masters =
  opt count "masters" ~docv:"N"
    ~doc:"Number of master nodes for Method C (paper: 1)."
    (scenario Scenario.with_masters)

let batch =
  opt count "batch" ~docv:"KB" ~doc:"Override the batch/message size in KB."
    (scenario (fun kb sc -> Scenario.with_batch sc (kib kb)))

let network =
  opt
    (named "network"
       Netsim.Profile.
         [ ("myrinet", myrinet); ("gige", gigabit_ethernet);
           ("gigabit", gigabit_ethernet); ("gigabit-ethernet", gigabit_ethernet);
           ("fast-ethernet", fast_ethernet); ("ethernet", fast_ethernet) ])
    "network" ~docv:"NET"
    ~doc:"Network profile: myrinet (default) | gige | fast-ethernet."
    (scenario Scenario.with_net)

let seed =
  opt Arg.int "seed" ~docv:"SEED" ~doc:"Workload seed."
    (scenario Scenario.with_seed)

let jobs_arg =
  Arg.(
    value
    & opt int (Exec.default_jobs ())
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Worker domains for simulation sweeps (default: available cores \
           minus one, at least 1).  Results are byte-identical at any value.")

let jobs = Term.(const Spec.with_jobs $ jobs_arg)

let methods default =
  with_default (Arg.list method_conv) default "methods" ~docv:"METHODS"
    ~doc:"Comma-separated methods to run (A,B,C-1,C-2,C-3)."
    Spec.with_methods

let one_method default =
  with_default method_conv default "methods" ~docv:"METHOD"
    ~doc:"The one method to run (A, B, C-1, C-2 or C-3)."
    (fun m -> Spec.with_methods [ m ])

let batches ~absent default : flag =
  let doc = "Comma-separated batch/message sizes in KB, e.g. '64,128,256'." in
  Term.(
    const (fun kbs spec ->
        Spec.with_batches
          (match kbs with Some kbs -> List.map kib kbs | None -> default spec)
          spec)
    $ Arg.(
        value
        & opt (some (list ~sep:',' count)) None
        & info [ "batches" ] ~docv:"KBS" ~absent ~doc))

let sweep_batches =
  batches ~absent:"8,16,...,4096, the paper's sweep" (fun _ ->
      Scenario.fig3_batches)

let update_batches =
  batches ~absent:"the scenario's batch" (fun spec ->
      [ spec.Spec.scenario.Scenario.batch_bytes ])

let csv_arg =
  let doc = "Also write raw results to $(docv)." in
  Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc)

let observe ~timeline : flag =
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
  let honours =
    (if timeline then [ "timeline" ] else [])
    @ [ "metrics"; "trace"; "profile"; "scope" ]
  in
  let arg =
    Arg.(
      value
      & opt
          (parsed Dispatch.Observe.parse Dispatch.Observe.to_string)
          Dispatch.Observe.none
      & info [ "observe" ] ~docv:"SPEC" ~doc)
  in
  Term.(
    term_result' ~usage:true
      (const (fun o ->
           Result.map (fun () -> Spec.with_observe o)
             (Dispatch.Observe.check ~honours o))
      $ arg))

let faults =
  opt (parsed Fault.Spec.parse Fault.Spec.to_string) "faults" ~docv:"SPEC"
    ~doc:
      "Fault-injection spec for Method C family runs: 'none' (default) or \
       '+'-joined clauses drop:p=P | dup:p=P | delay:p=P,ns=NS | \
       degrade:node=N,factor=F | crash:node=N,at=NS | slow:node=N,factor=F \
       | failover:timeout=NS,retries=K,fallback=local|none | seed=N.  \
       E.g. 'crash:node=3,at=2e6+failover:retries=3'.  Degraded runs are \
       deterministic: byte-identical at any --jobs value."
    Spec.with_faults

let arrival =
  opt
    (parsed Workload.Arrival.parse Workload.Arrival.to_string)
    "arrival" ~docv:"SPEC"
    ~doc:
      "Arrival process: poisson:rate=QPS (shorthand poisson:QPS) | \
       mmpp:rate=QPS,burst=F,on=NS,off=NS | \
       diurnal:rate=QPS,peak=F,period=NS | replay:path=FILE (shorthand \
       replay:FILE).  Deterministic for a given scenario seed."
    Spec.with_arrival

let slo =
  opt positive "slo" ~docv:"NS"
    ~doc:
      "Response-time budget for SLO accounting, in simulated nanoseconds \
       (default 1e6 = 1 ms)."
    Spec.with_slo

let duration =
  opt positive "duration" ~docv:"NS"
    ~doc:
      "Serving horizon in simulated nanoseconds: arrivals are generated in \
       [0, NS)."
    (scenario Scenario.with_duration)

let offered_load =
  opt positive "offered-load" ~docv:"QPS"
    ~doc:
      "Rescale the arrival process to this time-average offered load \
       (queries per second)."
    (scenario Scenario.with_offered_load)

let clients =
  opt count "clients" ~docv:"N"
    ~doc:"Simulated client populations feeding the arrival process."
    (scenario Scenario.with_clients)

let updates =
  opt
    (parsed Workload.Mutation.parse Workload.Mutation.to_string)
    "updates" ~docv:"SPEC"
    ~doc:
      "Update stream for the dynamic-index runs: 'none' (default), a bare \
       ratio like '0.2' (updates per query), or \
       mix:ratio=R,inserts=F,segment=N,threshold=K,major=F with the insert \
       fraction and the log-structured merge-policy knobs (segment \
       capacity, size-tier merge threshold, major-compaction fraction).  \
       E.g. 'mix:ratio=0.1,inserts=0.7,segment=128'."
    Spec.with_updates

(* ------------------------------------------------------------------ *)
(* A subcommand's term *)

(* Method C needs a slave beside its masters and a key for every slave;
   a one-master run (update forwarding, the masters ablation)
   partitions over [n_nodes - 1] slaves, the most any C-family run of
   the scenario uses.  A fault must land on a node of the cluster. *)
let feasible ~always_c spec =
  let { Scenario.n_nodes; n_masters; n_keys; _ } = spec.Spec.scenario in
  let c_family =
    always_c || List.exists Dispatch.Methods.is_distributed spec.Spec.methods
  in
  let fail fmt = Printf.ksprintf Result.error fmt in
  match List.find_opt (fun n -> n >= n_nodes) (Fault.Spec.nodes spec.Spec.faults) with
  | _ when c_family && n_nodes <= n_masters ->
      fail "--nodes (%d) must exceed --masters (%d) for the Method C family"
        n_nodes n_masters
  | _ when c_family && n_keys < n_nodes - 1 ->
      fail "--keys (%d) must be at least the Method C slave count (%d with \
            --nodes %d)" n_keys (n_nodes - 1) n_nodes
  | Some node ->
      fail "--faults names node %d, but the cluster's nodes are 0..%d" node
        (n_nodes - 1)
  | None -> Ok spec

let term ?(always_c = false) flags =
  let apply =
    List.fold_left
      (fun acc flag -> Term.(const (fun f g spec -> g (f spec)) $ acc $ flag))
      (Term.const Fun.id) flags
  in
  Term.(
    term_result' ~usage:true
      (const (fun sc f ->
           feasible ~always_c (f (Spec.with_scenario sc Spec.default)))
      $ scale_arg $ apply))
