open Simcore

type source =
  | Batch
  | Serve of {
      arrivals : float array;
      start_at : float array;
      done_at : float array;
      series : Obs.Series.builder option;
    }

type ops =
  | Queries
  | Updates of {
      ops : Workload.Mutation.op array;
      policy : Index.Segments.policy;
      counters :
        Index.Segments.t list -> lost_updates:int -> (string * float) list;
    }

type topology = Flat | Routers of int

type outcome = {
  run : Run_result.t;
  segments : Index.Segments.t list;
  lost_updates : int;
}

let layout (sc : Workload.Scenario.t) ~ops ~topology =
  let n_routers = match topology with Flat -> 0 | Routers r -> r in
  (* The router tier and update forwarding each run exactly one master:
     per-slave update order is defined by one staging stream. *)
  let n_masters =
    match (topology, ops) with
    | Flat, Queries -> sc.Workload.Scenario.n_masters
    | _ -> 1
  in
  let n_slaves = sc.Workload.Scenario.n_nodes - n_masters - n_routers in
  match (topology, ops) with
  | Routers _, Updates _ -> Error "update forwarding has no router tier"
  | _ when n_masters < 1 -> Error "need at least one master"
  | Routers _, _ when n_routers < 1 -> Error "need at least one router"
  | _ when n_slaves < max 1 n_routers ->
      Error "need a master, and a slave per router"
  | _ -> Ok (n_masters, n_routers, n_slaves)

let drive ~faults (sc : Workload.Scenario.t) ~source ~ops ~topology ~variant
    ~keys ~queries =
  let params = sc.Workload.Scenario.params in
  let net_profile = sc.Workload.Scenario.net in
  let n_nodes = sc.Workload.Scenario.n_nodes in
  let batch = match source with Batch -> true | Serve _ -> false in
  let dynamic = match ops with Queries -> false | Updates _ -> true in
  let n_masters, n_routers, n_slaves =
    match layout sc ~ops ~topology with
    | Ok l -> l
    | Error msg -> invalid_arg ("Method_c: " ^ msg)
  in
  (* Node layout: masters, then routers, then slaves. *)
  let first_slave = n_masters + n_routers in
  let n = Array.length queries in
  let batch_keys = Workload.Scenario.queries_per_batch sc in
  let eng = Engine.create () in
  (* A fault plan only exists for a non-empty spec, so the fault-free run
     takes exactly the pre-fault-support code paths (bit-identical). *)
  let plan =
    match faults with
    | Some spec when not (Fault.Spec.is_none spec) ->
        Some (Fault.Plan.create spec ~seed:sc.Workload.Scenario.seed)
    | _ -> None
  in
  let net = Netsim.Network.create ?faults:plan eng net_profile ~nodes:n_nodes in
  let part = Partition.make ~keys ~parts:n_slaves in
  let word = params.Cachesim.Mem_params.word_bytes in
  let overhead = net_profile.Netsim.Profile.host_overhead_ns in
  let machine name = Machine.create eng ~name params in
  (* Single-master modes name their master plainly. *)
  let masters =
    Array.init n_masters (fun i ->
        machine
          (if topology = Flat && not dynamic then Printf.sprintf "master%d" i
           else "master"))
  in
  let routers =
    Array.init n_routers (fun r -> machine (Printf.sprintf "router%d" r))
  in
  let slaves =
    Array.init n_slaves (fun s -> machine (Printf.sprintf "slave%d" s))
  in
  let slave_nodes =
    Array.init n_slaves (fun s ->
        let slice = Partition.slice part s in
        match ops with
        | Queries -> Slave_node.build variant slaves.(s) slice ~batch_keys
        | Updates u ->
            Slave_node.build_segments slaves.(s) slice ~policy:u.policy
              ~batch_keys)
  in
  (* --- Host-side oracle and bookkeeping.  Under update forwarding the
     per-slave oracles advance at master staging time: one master and
     non-overtaking channels make staging order = processing order, so
     staging-time expectations are exact. *)
  let oracles =
    match ops with
    | Queries -> [||]
    | Updates _ ->
        Array.init n_slaves (fun s ->
            Index.Ref_impl.Dyn.create (Partition.slice part s))
  in
  let expected =
    match ops with
    | Queries -> Index.Ref_impl.ranks keys queries
    | Updates _ -> Array.make (max 1 n) (-1)
  in
  let errors = ref 0 in
  let lat = Latency.create () in
  let prof = Obs.Profile.current () in
  (* Per-batch slave-side cost breakdowns, recorded by the slaves and
     joined with replies at the targets (tail-query inspector). *)
  let batch_profile =
    match prof with Some _ when batch -> Some (Hashtbl.create 512) | _ -> None
  in
  let read_at = if batch then Array.make (max 1 n) 0.0 else [||] in
  let series = match source with Serve s -> s.series | Batch -> None in
  let next_batch_id = ref 0 in
  let in_flight : (int, Failover.pending) Hashtbl.t = Hashtbl.create 256 in
  let lost_updates = ref 0 in
  (* --- Failover state (degraded runs only).  The timeout default is
     several end-to-end batch times (both hops under a router tier), so
     a healthy reply can never race it. *)
  let fo =
    Option.map
      (fun p ->
        let hops = if n_routers > 0 then 2.0 else 1.0 in
        let timeout_default =
          8.0
          *. (hops
              *. (net_profile.Netsim.Profile.latency_ns
                 +. Netsim.Profile.transfer_ns net_profile
                      sc.Workload.Scenario.batch_bytes)
             +. overhead)
        in
        Failover.create p ~timeout_default ~nodes:n_nodes)
      plan
  in
  (* Master-resident full-key sorted arrays, for resolving a dead
     destination's batches locally (degraded query runs only: under
     updates a static snapshot cannot answer).  The flat layout places
     it below the delimiter table, the router tier above. *)
  let fallback_idx = Array.make n_masters None in
  let build_fallback m =
    if Option.is_some fo && not dynamic then
      Some
        (Machine.labelled m ~label:"fallback" (fun () ->
             Index.Sorted_array.build m keys))
    else None
  in
  (* Delimiters between consecutive slave groups [bounds]: the first key
     of every group but the first. *)
  let delimiters m bounds =
    Machine.labelled m ~label:"partition" (fun () ->
        Index.Sorted_array.build m
          (Array.init
             (Array.length bounds - 2)
             (fun i -> keys.(Partition.base part bounds.(i + 1)))))
  in
  (* [m] loads its static structures from an image of [build]. *)
  let load m build =
    let img, template = Machine.build_image params build in
    Machine.load_image m img;
    template
  in
  (* --- One staging/flush routine for every dispatching node (master or
     router): one buffer per downstream node, each shipped as a [Data]
     batch the moment it holds [batch_keys / n_slaves] words (the
     master's share when it feeds routers), so messages flow
     continuously and dispatch stays pipelined with slave lookups at
     every batch size — the paper's Figure 3 stays flat up to 4 MB
     batches with only ~20% slave idle time, which rules out any flush
     barrier.  Returns [stage] and [flush_all]. *)
  let stager m ~src ~home ~dsts ~phase ~cap =
    let k = Array.length dsts in
    let bufs =
      Array.init k (fun _ ->
          Machine.labelled_alloc m ~label:"mpi_staging" batch_keys)
    in
    let lens = Array.make k 0 in
    (* [stage] flushes at [cap] words, so no batch carries more qids. *)
    let qids = Array.init k (fun _ -> Array.make cap 0) in
    let n_qids = Array.make k 0 in
    let flush s =
      let len = lens.(s) in
      if len > 0 then begin
        Machine.sync m;
        Machine.set_phase m "batch_xfer";
        Machine.compute m overhead;
        Machine.sync m;
        let payload = Machine.peek_array m bufs.(s) len in
        let id = !next_batch_id in
        incr next_batch_id;
        Hashtbl.add in_flight id
          (Failover.make_pending
             ~qids:(Array.sub qids.(s) 0 n_qids.(s))
             ~payload ~dst:dsts.(s) ~home ~now:(Engine.now eng));
        Netsim.Network.isend net ~src ~dst:dsts.(s) ~tag:Proto.data_tag
          ~phase:"batch_xfer" ~size:(len * word)
          (Proto.Data (id, payload));
        Machine.set_phase m phase;
        lens.(s) <- 0;
        n_qids.(s) <- 0
      end
    in
    (* [qid < 0] marks an update word. *)
    let stage s w ~qid =
      Machine.write m (bufs.(s) + lens.(s)) w;
      if qid >= 0 then begin
        qids.(s).(n_qids.(s)) <- qid;
        n_qids.(s) <- n_qids.(s) + 1
      end;
      lens.(s) <- lens.(s) + 1;
      if lens.(s) = cap then flush s
    in
    let flush_all () =
      for s = 0 to k - 1 do
        flush s
      done
    in
    (stage, flush_all)
  in
  let term ~src dsts =
    Array.iter
      (fun dst ->
        Netsim.Network.isend net ~src ~dst ~tag:Proto.term_tag ~phase:"control"
          ~size:0 Proto.Term)
      dsts
  in
  (* Unresolved queries per master; a target finishes at zero. *)
  let rem = Array.make n_masters 0 in
  (* --- Masters (nodes 0 .. n_masters-1): each holds a replica of the
     top-level delimiter table (§3.2: "multiple master nodes, with
     replicates of the top level data structure") and dispatches its
     share of the op stream: a contiguous chunk in batch mode, a
     round-robin deal of the arrivals when serving. *)
  let groups =
    match topology with
    | Flat -> Array.init (n_slaves + 1) Fun.id
    | Routers r -> Partition.chunk_bounds n_slaves r
  in
  let chunks = Partition.chunk_bounds n n_masters in
  let assign =
    match source with
    | Serve _ -> Partition.round_robin n n_masters
    | Batch -> [||]
  in
  let spawn_master mi =
    let m = masters.(mi) in
    (* The master's stream: the words it reads, and the query id behind
       each query word. *)
    let words, qid_at =
      match (ops, source) with
      | Updates u, _ ->
          ( Array.map (Proto.op_word queries) u.ops,
            fun j ->
              match u.ops.(j) with Workload.Mutation.Query qi -> qi | _ -> -1 )
      | Queries, Batch ->
          let lo = chunks.(mi) and hi = chunks.(mi + 1) in
          (Array.sub queries lo (hi - lo), fun j -> lo + j)
      | Queries, Serve _ ->
          let my = assign.(mi) in
          (Array.map (fun qid -> queries.(qid)) my, fun j -> my.(j))
    in
    let cnt = Array.length words in
    rem.(mi) <- cnt;
    let dsts =
      Array.init (Array.length groups - 1) (fun d -> n_masters + d)
    in
    let fallback, delims =
      load m (fun im ->
          if n_routers = 0 then
            let fallback = build_fallback im in
            (fallback, delimiters im groups)
          else
            let delims = delimiters im groups in
            (build_fallback im, delims))
    in
    fallback_idx.(mi) <-
      Option.map (fun fb -> Index.Sorted_array.retarget fb m) fallback;
    let delims = Index.Sorted_array.retarget delims m in
    let base = Machine.labelled_alloc m ~label:"queries" (max 1 cnt) in
    Machine.poke_array m base words;
    let stage, flush_all =
      stager m ~src:mi ~home:mi ~dsts ~phase:"dispatch"
        ~cap:(max 1 (batch_keys / Array.length dsts))
    in
    Machine.set_phase m "dispatch";
    Engine.spawn eng ~name:(Printf.sprintf "master%d" mi) (fun () ->
        for j = 0 to cnt - 1 do
          (* Serving: per-query admission.  About to go idle, ship the
             partial buffers first so no already-admitted query waits
             out the lull, then sleep to the next admission. *)
          (match source with
          | Serve s ->
              let qid = qid_at j in
              let t = s.arrivals.(qid) in
              Machine.sync m;
              if Engine.now eng < t then begin
                flush_all ();
                Machine.sync m;
                let now = Engine.now eng in
                if now < t then Engine.delay eng (t -. now)
              end;
              s.start_at.(qid) <- Engine.now eng
          | Batch -> ());
          let w = Machine.read m (base + j) in
          let k = Proto.key w and op = Proto.op w in
          if op = Proto.query_op then begin
            let qid = qid_at j in
            if batch then
              read_at.(qid) <- Engine.now eng +. Machine.pending_ns m;
            let s = Index.Sorted_array.search delims k in
            if dynamic then
              expected.(qid) <-
                Partition.base part s + Index.Ref_impl.Dyn.rank oracles.(s) k;
            stage s w ~qid
          end
          else begin
            Machine.set_phase m "update_forward";
            let s = Index.Sorted_array.search delims k in
            let oracle = oracles.(s) in
            ignore
              (if op = Proto.insert_op then Index.Ref_impl.Dyn.insert oracle k
               else Index.Ref_impl.Dyn.delete oracle k);
            stage s w ~qid:(-1);
            Machine.set_phase m "dispatch"
          end;
          if batch then begin
            if j land 8191 = 8191 then begin
              Machine.sync m;
              Machine.sample_residency m
            end
          end
          else if qid_at j land 63 = 0 then Machine.sample_residency m
        done;
        flush_all ();
        Machine.sync m;
        Machine.sample_residency m;
        term ~src:mi dsts;
        (* Update streams may end in update-only batches (no replies owed
           against any quota): tell the target dispatch is over, so it
           drains [in_flight] until this marker and every batch resolve. *)
        if dynamic then term ~src:mi [| mi |])
  in
  for mi = 0 to n_masters - 1 do
    spawn_master mi
  done;
  (* --- Routers: re-batch incoming batches per slave of their group,
     using the group's own delimiter slice. *)
  let spawn_router r =
    let m = routers.(r) and node = n_masters + r in
    let g_lo = groups.(r) and g_hi = groups.(r + 1) in
    let dsts = Array.init (g_hi - g_lo) (fun i -> first_slave + g_lo + i) in
    let delims =
      Index.Sorted_array.retarget
        (load m (fun im ->
             delimiters im (Array.init (g_hi - g_lo + 1) (fun i -> g_lo + i))))
        m
    in
    let rx =
      [|
        Machine.labelled_alloc m ~label:"mpi_staging" batch_keys;
        Machine.labelled_alloc m ~label:"mpi_staging" batch_keys;
      |]
    in
    let stage, flush_all =
      stager m ~src:node ~home:0 ~dsts ~phase:"route"
        ~cap:(max 1 (batch_keys / n_slaves))
    in
    Machine.set_phase m "route";
    Engine.spawn eng ~name:(Printf.sprintf "router%d" r) (fun () ->
        let rx_sel = ref 0 in
        let serving = ref true in
        while !serving do
          let env = Netsim.Network.recv net ~dst:node in
          match env.Netsim.Network.payload with
          | Proto.Term ->
              flush_all ();
              Machine.sync m;
              term ~src:node dsts;
              serving := false
          | Proto.Reply _ -> failwith "router received a reply"
          | Proto.Data (id, ks) -> (
              Machine.set_phase m "batch_xfer";
              Machine.compute m overhead;
              Machine.set_phase m "route";
              match Hashtbl.find_opt in_flight id with
              | None ->
                  (* Under faults a duplicate or an already-redispatched
                     batch can reach the router; consume and ignore it. *)
                  if Option.is_none plan then
                    failwith "router received an unknown batch"
              | Some p ->
                  Hashtbl.remove in_flight id;
                  let buf = rx.(!rx_sel) in
                  Machine.dma_write m buf ks;
                  Array.iteri
                    (fun j qid ->
                      let q = Machine.read m (buf + j) in
                      stage (Index.Sorted_array.search delims q) q ~qid)
                    p.Failover.qids;
                  Machine.sync m;
                  rx_sel := 1 - !rx_sel)
        done)
  in
  for r = 0 to n_routers - 1 do
    spawn_router r
  done;
  (* --- Slaves: answer batches from any upstream node in arrival order;
     reply to the originating master (every batch's home is node 0
     under a router tier). *)
  for s = 0 to n_slaves - 1 do
    Slave_node.spawn eng net slave_nodes.(s) ~node:(first_slave + s)
      ~terms_expected:(if n_routers = 0 then n_masters else 1)
      ~reply_dst:(if n_routers = 0 then fun ~src -> src else fun ~src:_ -> 0)
      ~overhead_ns:overhead ?batch_profile ?faults:plan ()
  done;
  (* --- Delivery: one query's answer reaches its target.  Batch runs
     time the response from the master's read; serving runs from
     admission, and split it into queueing and service. *)
  let deliver ~batch:len ~detail qid =
    let now = Engine.now eng in
    let resp =
      match source with
      | Batch -> now -. read_at.(qid)
      | Serve s ->
          s.done_at.(qid) <- now;
          now -. s.arrivals.(qid)
    in
    Latency.add lat resp;
    match prof with
    | Some p when Obs.Tail.qualifies (Obs.Profile.tail p) resp ->
        let breakdown =
          match source with
          | Batch -> detail resp
          | Serve s ->
              let started = s.start_at.(qid) in
              [
                ("queue", started -. s.arrivals.(qid));
                ("service", now -. started);
              ]
        in
        Obs.Tail.note (Obs.Profile.tail p) ~id:qid ~ns:resp ~batch:len
          ~breakdown
    | Some _ | None -> ()
  in
  (* Queries stranded by a router that died between consuming a master
     batch and cutting its sub-batches: no in-flight entry covers them. *)
  let stranding = n_routers > 0 && Option.is_some fo in
  let resolved = if stranding then Array.make (max 1 n) false else [||] in
  let settle home qids =
    if stranding then Array.iter (fun q -> resolved.(q) <- true) qids;
    rem.(home) <- rem.(home) - Array.length qids
  in
  (* Validate one reply's partition-local ranks and deliver its queries. *)
  let record_reply ~src ~id (p : Failover.pending) ranks =
    let qids = p.Failover.qids in
    (if Array.length qids <> Array.length ranks then incr errors
     else
       let base = Partition.base part (src - first_slave) in
       let detail resp =
         let bd =
           match batch_profile with
           | Some tbl -> Option.value ~default:[] (Hashtbl.find_opt tbl id)
           | None -> []
         in
         let slave_ns = List.fold_left (fun acc (_, x) -> acc +. x) 0.0 bd in
         ("queue_and_net", resp -. slave_ns) :: bd
       in
       Array.iteri
         (fun j rank ->
           if base + rank <> expected.(qids.(j)) then incr errors;
           deliver ~batch:(Array.length ranks) ~detail qids.(j))
         ranks);
    settle p.Failover.home qids
  in
  (* --- Failover (degraded runs only). *)
  let note f =
    match series with Some b -> f b (Engine.now eng) | None -> ()
  in
  (* Re-send a stale batch from its home, charging the host overhead to
     the [retry] phase. *)
  let resend id (p : Failover.pending) =
    (match prof with
    | Some pr ->
        Obs.Profile.charge pr ~path:[ "retry"; "host_overhead" ] overhead
    | None -> ());
    note (fun b at -> Obs.Series.note_retry b ~at ());
    Netsim.Network.isend net ~src:p.Failover.home ~dst:p.Failover.dst
      ~tag:Proto.data_tag ~phase:"retry"
      ~size:(Array.length p.Failover.payload * word)
      (Proto.Data (id, p.Failover.payload))
  in
  (* Resolve queries at their home master's full-key index, or account
     them lost (with any updates riding the same batch). *)
  let resolve fo home qids payload =
    let len = Array.length qids in
    (match fallback_idx.(home) with
    | Some fb when Fault.Plan.fallback (Failover.plan fo) ->
        let m = masters.(home) in
        Machine.set_phase m "redispatch";
        Array.iteri
          (fun j q ->
            if Index.Sorted_array.search fb q <> expected.(qids.(j)) then
              incr errors)
          payload;
        Machine.sync m;
        Machine.set_phase m "dispatch";
        Failover.note_fallback fo len;
        note (fun b at -> Obs.Series.note_fallback b ~at ~n:len ());
        Array.iter
          (deliver ~batch:len ~detail:(fun resp -> [ ("redispatch", resp) ]))
          qids
    | Some _ | None ->
        Failover.note_lost fo ~queries:len;
        lost_updates := !lost_updates + Array.length payload - len;
        note (fun b at ->
            for _ = 1 to len do
              Obs.Series.note_lost b ~at
            done));
    settle home qids
  in
  let redispatch fo _id (p : Failover.pending) =
    note (fun b at ->
        Obs.Series.note_redispatch b ~at ();
        Obs.Series.note_event b ~at
          ~label:(Printf.sprintf "redispatch:node=%d" p.Failover.dst));
    resolve fo p.Failover.home p.Failover.qids p.Failover.payload
  in
  (* --- One target per master: collects and validates the replies to
     that master's batches as they arrive.  The paper sends results "to
     the target" off the critical path; we charge it no CPU (each node
     is a dual-processor machine, and validation is oracle bookkeeping
     anyway).  Under update forwarding a target drains until its
     master's end marker has arrived and nothing is in flight; otherwise
     until every query of its master is resolved. *)
  let drained = Array.make n_masters false in
  let receive dst =
    match fo with
    | None -> Some (Netsim.Network.recv net ~dst)
    | Some fo ->
        Netsim.Network.recv_timeout net ~dst
          ~timeout_ns:(Failover.timeout_ns fo)
  in
  for mi = 0 to n_masters - 1 do
    let pending () =
      if dynamic then (not drained.(mi)) || Hashtbl.length in_flight > 0
      else rem.(mi) > 0
    in
    Engine.spawn eng ~name:(Printf.sprintf "target%d" mi) (fun () ->
        let idle = ref 0 in
        while pending () do
          (match receive mi with
          | Some env -> (
              idle := 0;
              match env.Netsim.Network.payload with
              | Proto.Reply (id, ranks) -> (
                  match Hashtbl.find_opt in_flight id with
                  | None ->
                      (* Late or duplicate reply for a batch already
                         resolved: benign under faults. *)
                      if Option.is_none fo then incr errors
                  | Some p ->
                      Hashtbl.remove in_flight id;
                      record_reply ~src:env.Netsim.Network.src ~id p ranks)
              | Proto.Term -> drained.(mi) <- true
              | Proto.Data _ -> failwith "target received a data batch")
          | None -> if Hashtbl.length in_flight = 0 then incr idle);
          match fo with
          | None -> ()
          | Some fo ->
              Failover.sweep fo ~now:(Engine.now eng) ~in_flight ~resend
                ~redispatch:(redispatch fo);
              (* Stranded queries: after two full silent timeouts with an
                 empty table, resolve whatever is left. *)
              if stranding && !idle >= 2 && rem.(mi) > 0 then begin
                let qids =
                  Array.of_list
                    (List.filter
                       (fun i -> not resolved.(i))
                       (List.init n Fun.id))
                in
                resolve fo mi qids (Array.map (fun i -> queries.(i)) qids)
              end
        done;
        Option.iter
          (fun fo -> Failover.note_finish fo ~now:(Engine.now eng))
          fo)
  done;
  Engine.run eng;
  (* Degraded runs leave stale recv_timeout timer events that keep the
     engine clock ticking after the last target finished; use the
     recorded completion time instead. *)
  let raw =
    match fo with
    | Some f when Failover.finish_at f > 0.0 -> Failover.finish_at f
    | _ -> Engine.now eng
  in
  if Hashtbl.length in_flight <> 0 then incr errors;
  let cluster = Telemetry.rollup ~raw [ masters; routers; slaves ] in
  let degraded =
    match fo with
    | None -> Run_result.no_degradation
    | Some f -> Failover.degraded f
  in
  let segments =
    List.filter_map Slave_node.segments (Array.to_list slave_nodes)
  in
  let lost_updates = !lost_updates in
  let run =
    {
      Run_result.method_id = variant;
      scenario = sc.Workload.Scenario.name;
      n_queries = n;
      n_nodes;
      batch_bytes = sc.Workload.Scenario.batch_bytes;
      total_ns = raw;
      raw_ns = raw;
      per_key_ns = raw /. float_of_int (max 1 n);
      slave_idle = cluster.Telemetry.idle;
      master_busy = cluster.Telemetry.busy;
      messages = Netsim.Network.messages_sent net;
      bytes_sent = Netsim.Network.bytes_sent net;
      validation_errors = !errors;
      cache = cluster.Telemetry.cache;
      overflow_flushes =
        Array.fold_left
          (fun acc i -> acc + Slave_node.overflow_flushes i)
          0 slave_nodes;
      mean_response_ns = Latency.mean lat;
      p95_response_ns = Latency.percentile lat 0.95;
      metrics =
        Telemetry.snapshot ~eng ~net
          ~machines:(Array.concat [ masters; routers; slaves ])
          ~latency:lat ~validation_errors:!errors
          ~counters:
            (match ops with
            | Updates u -> u.counters segments ~lost_updates
            | Queries -> [])
          ?degraded:(Option.map (fun _ -> degraded) fo)
          ();
      trace = None;
      profile = None;
      degraded;
      serving = None;
      timeline = None;
      scope = None;
    }
  in
  { run; segments; lost_updates }
