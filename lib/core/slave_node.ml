open Simcore

type index =
  | S_csb of Index.Csb_tree.t
  | S_buffered of Index.Buffered.t
  | S_array of Index.Sorted_array.t
  | S_segments of Index.Segments.t

type t = { m : Machine.t; index : index; rx : int array; reply : int }

let retarget m = function
  | S_csb c -> S_csb (Index.Csb_tree.retarget c m)
  | S_buffered b -> S_buffered (Index.Buffered.retarget b m)
  | S_array a -> S_array (Index.Sorted_array.retarget a m)
  | S_segments s -> S_segments (Index.Segments.retarget s m)

(* The index is built once as an image for [m] to load. *)
let create m ~batch_keys build =
  let img, template = Machine.build_image (Machine.params m) build in
  Machine.load_image m img;
  let rx =
    [|
      Machine.labelled_alloc m ~label:"mpi_staging" batch_keys;
      Machine.labelled_alloc m ~label:"mpi_staging" batch_keys;
    |]
  in
  let reply = Machine.labelled_alloc m ~label:"mpi_staging" batch_keys in
  { m; index = retarget m template; rx; reply }

let build variant m slice ~batch_keys =
  create m ~batch_keys (fun im ->
      Machine.labelled im ~label:"partition" (fun () ->
          match (variant : Methods.id) with
          | Methods.C1 -> S_csb (Index.Csb_tree.build im slice)
          | Methods.C2 ->
              let tree = Index.Nary_tree.build im slice in
              (* Zhou-Ross buffering against the L1: subtrees must fit in
                 half the L1 alongside their buffers (Section 3.2). *)
              S_buffered
                (Index.Buffered.create
                   ~budget_bytes:
                     ((Machine.params im).Cachesim.Mem_params.l1_size / 2)
                   ~max_batch:batch_keys tree)
          | Methods.C3 -> S_array (Index.Sorted_array.build im slice)
          | Methods.A | Methods.B ->
              invalid_arg "Slave_node.build: variant must be C-1, C-2 or C-3"))

(* [Segments] labels its own base and delta regions. *)
let build_segments m slice ~policy ~batch_keys =
  create m ~batch_keys (fun im ->
      S_segments (Index.Segments.create im ~policy slice))

let overflow_flushes t =
  match t.index with
  | S_buffered b -> Index.Buffered.overflow_flushes b
  | S_csb _ | S_array _ | S_segments _ -> 0

let segments t = match t.index with S_segments s -> Some s | _ -> None

let spawn eng net { m; index; rx; reply } ~node ~terms_expected ~reply_dst
    ~overhead_ns ?batch_profile ?faults () =
  let params = Machine.params m in
  let word = params.Cachesim.Mem_params.word_bytes in
  let slow_factor =
    match faults with
    | Some plan -> Fault.Plan.slow_factor plan ~node
    | None -> 1.0
  in
  Engine.spawn eng ~name:(Printf.sprintf "slave@%d" node) (fun () ->
      let terms = ref 0 in
      let rx_sel = ref 0 in
      while !terms < terms_expected do
        let env = Netsim.Network.recv net ~dst:node in
        (* A crashed node stops serving: count the message as a Term so
           the loop drains out.  (The network already black-holes
           post-crash traffic; this catches messages in flight across
           the crash instant.) *)
        let crashed =
          match faults with
          | Some plan ->
              Fault.Plan.crashed plan ~node ~now:(Engine.now eng)
          | None -> false
        in
        match env.Netsim.Network.payload with
        | _ when crashed -> terms := terms_expected
        | Proto.Term -> incr terms
        | Proto.Reply _ -> failwith "slave received a reply"
        | Proto.Data (id, ks) ->
            let busy0 = Machine.busy_ns m in
            let stats0 =
              match batch_profile with
              | Some _ -> Cachesim.Hierarchy.stats (Machine.hierarchy m)
              | None -> Cachesim.Hierarchy.zero_stats
            in
            Machine.set_phase m "batch_xfer";
            Machine.compute m overhead_ns;
            let cnt = Array.length ks in
            let buf = rx.(!rx_sel) in
            Machine.dma_write m buf ks;
            let busy_lk0 =
              if slow_factor > 1.0 then begin
                Machine.sync m;
                Machine.busy_ns m
              end
              else 0.0
            in
            Machine.set_phase m "lookup";
            (* [n_ranks]: the batch's query count (updates answer nothing). *)
            let n_ranks =
              match index with
              | S_array sa ->
                  for j = 0 to cnt - 1 do
                    let q = Machine.read m (buf + j) in
                    Machine.write m (reply + j) (Index.Sorted_array.search sa q)
                  done;
                  cnt
              | S_csb ct ->
                  for j = 0 to cnt - 1 do
                    let q = Machine.read m (buf + j) in
                    Machine.write m (reply + j) (Index.Csb_tree.search ct q)
                  done;
                  cnt
              | S_buffered b ->
                  Index.Buffered.process_batch b ~queries:buf ~results:reply
                    ~n:cnt;
                  cnt
              | S_segments seg ->
                  let r = ref 0 in
                  for j = 0 to cnt - 1 do
                    let w = Machine.read m (buf + j) in
                    let k = Proto.key w and op = Proto.op w in
                    if op = Proto.query_op then begin
                      Machine.write m (reply + !r)
                        (Index.Segments.search seg k);
                      incr r
                    end
                    else if op = Proto.insert_op then
                      ignore (Index.Segments.insert seg k)
                    else ignore (Index.Segments.delete seg k)
                  done;
                  !r
            in
            (* A slow node's computation takes [slow_factor] times as
               long: charge the surplus over the measured lookup time. *)
            if slow_factor > 1.0 then begin
              Machine.sync m;
              let extra =
                (slow_factor -. 1.0) *. (Machine.busy_ns m -. busy_lk0)
              in
              Machine.set_phase m "slow_node";
              Machine.compute m extra;
              Machine.sync m
            end;
            Machine.set_phase m "batch_xfer";
            Machine.compute m overhead_ns;
            Machine.sync m;
            Machine.sample_residency m;
            (match batch_profile with
            | Some tbl ->
                (* The batch's cost decomposition at this slave, for the
                   tail-query inspector: the target joins it with each
                   reply as it validates. *)
                let ds =
                  Cachesim.Hierarchy.sub_stats
                    (Cachesim.Hierarchy.stats (Machine.hierarchy m))
                    stats0
                in
                let cpu =
                  Machine.busy_ns m -. busy0 -. ds.Cachesim.Hierarchy.cost_ns
                in
                Hashtbl.replace tbl id
                  (("cpu", cpu)
                  :: Cachesim.Hierarchy.stats_breakdown params ds)
            | None -> ());
            let ranks = Machine.peek_array m reply n_ranks in
            Netsim.Network.isend net ~src:node
              ~dst:(reply_dst ~src:env.Netsim.Network.src)
              ~tag:Proto.reply_tag ~phase:"reply" ~size:(n_ranks * word)
              (Proto.Reply (id, ranks));
            rx_sel := 1 - !rx_sel
      done)
