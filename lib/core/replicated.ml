open Simcore

(* The replica one node holds: the paper's static n-ary tree (with the
   Zhou-Ross subtree buffers under B), or a log-structured [Segments]
   index beside the [Ref_impl.Dyn] oracle replayed to the same point of
   the stream. *)
type replica =
  | Tree of Index.Nary_tree.t * Index.Buffered.t option
  | Segments of Index.Segments.t * Index.Ref_impl.Dyn.t

(* One node's accumulators, read after the run: the nodes never
   communicate, so each keeps its own and they merge in node order. *)
type epoch = {
  machine : Machine.t;
  lat : Latency.t;
  errors : int;
  flushes : int;
  update_ns : float;
  segments : Index.Segments.t list;
}

let drive (sc : Workload.Scenario.t) ~source ~ops ~method_id ~keys ~queries =
  let params = sc.Workload.Scenario.params in
  let n_nodes = sc.Workload.Scenario.n_nodes in
  let n = Array.length queries in
  let batch_keys = Workload.Scenario.queries_per_batch sc in
  let buffered =
    match (method_id : Methods.id) with
    | Methods.A -> false
    | Methods.B -> true
    | Methods.C1 | Methods.C2 | Methods.C3 ->
        invalid_arg "Replicated.drive: method must be A or B"
  in
  (* Batch: one node drains the whole stream.  Serve: node [i] answers
     every [n_nodes]th query from [i], its [j]th at slot [j]. *)
  let batch, stride, arrivals, start_at, done_at =
    match source with
    | Method_c.Batch -> (true, 1, [||], [||], [||])
    | Method_c.Serve s -> (false, n_nodes, s.arrivals, s.start_at, s.done_at)
  in
  if stride < 1 then invalid_arg "Replicated: need at least one node";
  (* The replica is built once, into an image every node loads: the
     build is untimed, so a loaded replica is indistinguishable from a
     rebuilt one.  [attach m] is the replica over a machine [m] loaded
     from the image. *)
  let image, attach =
    Machine.build_image params (fun im ->
        match ops with
        | Method_c.Queries ->
            let tree =
              Machine.labelled im ~label:"partition" (fun () ->
                  Index.Nary_tree.build im keys)
            in
            if buffered then
              let b = Index.Buffered.create ~max_batch:batch_keys tree in
              fun m ->
                let b = Index.Buffered.retarget b m in
                Tree (Index.Buffered.tree b, Some b)
            else fun m -> Tree (Index.Nary_tree.retarget tree m, None)
        | Method_c.Updates u ->
            let seg = Index.Segments.create im ~policy:u.policy keys in
            fun m ->
              Segments
                (Index.Segments.retarget seg m, Index.Ref_impl.Dyn.create keys))
  in
  let prof = Obs.Profile.current () in
  (* Every replica is a process on one engine.  [spawn_node node] loads
     node [node]'s machine and spawns its drain; the closure it returns
     checks and collects the node once the engine has run. *)
  let eng = Engine.create () in
  let spawn_node node =
    let name = if batch then "worker" else Printf.sprintf "node%d" node in
    let m = Machine.create eng ~name params in
    let cnt = (n - node + stride - 1) / stride in
    Machine.load_image m image;
    let replica = attach m in
    let q_base = Machine.labelled_alloc m ~label:"queries" (max 1 cnt) in
    let r_base = Machine.labelled_alloc m ~label:"results" (max 1 cnt) in
    (* This node's queries, slot by slot; built again for the post-run
       check rather than held through the run. *)
    let own_queries () =
      if stride = 1 then queries
      else Array.init cnt (fun j -> queries.(node + (j * stride)))
    in
    Machine.poke_array m q_base (own_queries ());
    let lat = Latency.create () in
    let errors = ref 0 in
    let update_ns = ref 0.0 in
    Machine.set_phase m (if batch then "lookup" else "serve");
    (* One timed lookup: read the key at slot [j], write its rank. *)
    let lookup j =
      let q = Machine.read m (q_base + j) in
      let rank =
        match replica with
        | Tree (tree, _) -> Index.Nary_tree.search tree q
        | Segments (seg, oracle) ->
            let rank = Index.Segments.search seg q in
            if rank <> Index.Ref_impl.Dyn.rank oracle q then incr errors;
            rank
      in
      Machine.write m (r_base + j) rank
    in
    (* B's pass over slots [j, j + len): the buffered tree walk, or the
       per-key drain over a moving index. *)
    let pass j len =
      match replica with
      | Tree (_, Some b) ->
          Index.Buffered.process_batch b ~queries:(q_base + j)
            ~results:(r_base + j) ~n:len
      | Tree (_, None) | Segments _ ->
          for k = j to j + len - 1 do
            lookup k
          done
    in
    let stats0 () =
      match prof with
      | Some _ -> Cachesim.Hierarchy.stats (Machine.hierarchy m)
      | None -> Cachesim.Hierarchy.zero_stats
    in
    (* Batch tail entry: [busy] ns of node work since [stats0], split
       into cpu and per-level memory cost. *)
    let note_cost p ~id ~ns ~batch:len ~busy ~stats0 =
      if Obs.Tail.qualifies (Obs.Profile.tail p) ns then
        let ds =
          Cachesim.Hierarchy.sub_stats
            (Cachesim.Hierarchy.stats (Machine.hierarchy m))
            stats0
        in
        Obs.Tail.note (Obs.Profile.tail p) ~id ~ns ~batch:len
          ~breakdown:
            (("cpu", busy -. ds.Cachesim.Hierarchy.cost_ns)
            :: Cachesim.Hierarchy.stats_breakdown params ds)
    in
    (* Serving: sleep until [qid] has arrived (after landing pending
       cost, so a node behind its arrivals shows queueing delay). *)
    let admit qid =
      Machine.sync m;
      let t = arrivals.(qid) in
      let now = Engine.now eng in
      if now < t then Engine.delay eng (t -. now)
    in
    (* Serving: [qid]'s answer is delivered now; split its response into
       queueing and service for the tail inspector. *)
    let deliver qid ~batch:len =
      let fin = Engine.now eng in
      let t = arrivals.(qid) in
      done_at.(qid) <- fin;
      (match prof with
      | Some p when Obs.Tail.qualifies (Obs.Profile.tail p) (fin -. t) ->
          let started = start_at.(qid) in
          Obs.Tail.note (Obs.Profile.tail p) ~id:qid ~ns:(fin -. t) ~batch:len
            ~breakdown:[ ("queue", started -. t); ("service", fin -. started) ]
      | Some _ | None -> ());
      Latency.add lat (fin -. t)
    in
    (* A: one traversal per query.  Serving syncs around each lookup, so
       accumulated cost pushes the clock past the next admission. *)
    let query_a qid =
      let j = qid / stride in
      if batch then begin
        let busy0 = Machine.busy_ns m in
        let stats0 = stats0 () in
        lookup j;
        let d = Machine.busy_ns m -. busy0 in
        Latency.add lat d;
        match prof with
        | Some p -> note_cost p ~id:qid ~ns:d ~batch:1 ~busy:d ~stats0
        | None -> ()
      end
      else begin
        admit qid;
        start_at.(qid) <- Engine.now eng;
        lookup j;
        Machine.sync m;
        deliver qid ~batch:1;
        if qid land 63 = 0 then Machine.sample_residency m
      end
    in
    (* B: queries collect in slots [!open_at, !open_at + !held) and pass
       together when the batch is full, or — serving — when the next
       query arrives after the batch started: at low load batches are
       singletons, as load rises they grow and amortize.  Every member
       is answered when the pass ends. *)
    let open_at = ref 0 and held = ref 0 and started = ref 0.0 in
    let drain () =
      let j = !open_at and len = !held in
      if len > 0 then begin
        held := 0;
        if batch then begin
          (* Updates applied since the batch opened land first. *)
          Machine.sync m;
          started := Engine.now eng
        end;
        let busy0 = Machine.busy_ns m in
        let stats0 = stats0 () in
        pass j len;
        Machine.sync m;
        if batch then begin
          Machine.sample_residency m;
          let resp = Engine.now eng -. !started in
          Latency.add_many lat resp len;
          match prof with
          | Some p ->
              note_cost p ~id:j ~ns:resp ~batch:len
                ~busy:(Machine.busy_ns m -. busy0) ~stats0
          | None -> ()
        end
        else begin
          for k = j to j + len - 1 do
            let qid = node + (k * stride) in
            start_at.(qid) <- !started;
            deliver qid ~batch:len
          done;
          Machine.sample_residency m
        end
      end
    in
    let query_b qid =
      if !held > 0 && (not batch) && arrivals.(qid) > !started then drain ();
      if !held = 0 then begin
        open_at := qid / stride;
        if not batch then begin
          admit qid;
          started := Engine.now eng
        end
      end;
      incr held;
      if !held = batch_keys then drain ()
    in
    let query = if buffered then query_b else query_a in
    (* Updates are replicated work: every node applies every one, in
       stream order, timed on its own clock. *)
    let update ~insert k =
      match replica with
      | Segments (seg, oracle) ->
          let busy0 = Machine.busy_ns m in
          if
            (if insert then Index.Segments.insert seg k
             else Index.Segments.delete seg k)
            <>
            if insert then Index.Ref_impl.Dyn.insert oracle k
            else Index.Ref_impl.Dyn.delete oracle k
          then incr errors;
          update_ns := !update_ns +. (Machine.busy_ns m -. busy0)
      | Tree _ -> invalid_arg "Replicated: update on a static replica"
    in
    let n_ops =
      match ops with
      | Method_c.Queries -> cnt
      | Method_c.Updates u -> Array.length u.ops
    in
    Engine.spawn eng ~name (fun () ->
        for i = 0 to n_ops - 1 do
          (match ops with
          | Method_c.Queries -> query (node + (i * stride))
          | Method_c.Updates u -> (
              match u.ops.(i) with
              | Workload.Mutation.Query qid ->
                  if qid mod stride = node then query qid
              | Workload.Mutation.Insert k -> update ~insert:true k
              | Workload.Mutation.Delete k -> update ~insert:false k));
          (* Batch A lands its cost in the clock at a coarse grain, to
             keep the event queue off the per-query hot path. *)
          if batch && (not buffered) && i land 8191 = 8191 then begin
            Machine.sync m;
            Machine.sample_residency m
          end
        done;
        if buffered then begin
          drain ();
          Machine.sync m
        end
        else if batch then begin
          Machine.sync m;
          Machine.sample_residency m
        end);
    fun () ->
      (* A static replica is validated after the run; a moving one was
         checked online, answer by answer. *)
      (match replica with
      | Tree _ ->
          let expected = Index.Ref_impl.ranks keys (own_queries ()) in
          for j = 0 to cnt - 1 do
            if Machine.peek m (r_base + j) <> expected.(j) then incr errors
          done;
          (* The machine is kept until the roll-up, which reads only its
             counters. *)
          Machine.release_store m
      | Segments _ -> ());
      {
        machine = m;
        lat;
        errors = !errors;
        flushes =
          (match replica with
          | Tree (_, Some b) -> Index.Buffered.overflow_flushes b
          | Tree (_, None) | Segments _ -> 0);
        update_ns = !update_ns;
        segments = (match replica with Segments (s, _) -> [ s ] | Tree _ -> []);
      }
  in
  (* Replicas spawn in node order, and are checked and merged in node
     order. *)
  let finish = Array.init stride spawn_node in
  Engine.run eng;
  let epochs = Array.map (fun f -> f ()) finish in
  let lat = Latency.create () in
  Array.iter (fun e -> Latency.merge_into lat e.lat) epochs;
  let sum f = Array.fold_left (fun a e -> a + f e) 0 epochs in
  let errors = sum (fun e -> e.errors) in
  let raw = Engine.now eng in
  let machines = Array.map (fun e -> e.machine) epochs in
  let cluster = Telemetry.rollup ~raw [ machines ] in
  (* Batch: the one node's time over the cluster size, except for the
     replicated update work, which every node does. *)
  let total =
    if batch then
      let upd = Float.min epochs.(0).update_ns raw in
      ((raw -. upd) /. float_of_int n_nodes) +. upd
    else raw
  in
  {
    Run_result.method_id;
    scenario = sc.Workload.Scenario.name;
    n_queries = n;
    n_nodes;
    batch_bytes = sc.Workload.Scenario.batch_bytes;
    total_ns = total;
    raw_ns = raw;
    per_key_ns = total /. float_of_int (max 1 n);
    slave_idle = (if batch then 0.0 else cluster.Telemetry.idle);
    master_busy = 0.0;
    messages = 0;
    bytes_sent = 0;
    validation_errors = errors;
    cache = cluster.Telemetry.cache;
    overflow_flushes = sum (fun e -> e.flushes);
    mean_response_ns = Latency.mean lat;
    p95_response_ns = Latency.percentile lat 0.95;
    metrics =
      Telemetry.snapshot ~eng ~machines ~latency:lat
        ~validation_errors:errors
        ~counters:
          (match ops with
          | Method_c.Updates u ->
              u.counters
                (List.concat_map (fun e -> e.segments) (Array.to_list epochs))
                ~lost_updates:0
          | Method_c.Queries -> [])
        ();
    trace = None;
    profile = None;
    degraded = Run_result.no_degradation;
    serving = None;
    timeline = None;
    scope = None;
  }
