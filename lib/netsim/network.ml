open Simcore

type 'a envelope = {
  src : int;
  dst : int;
  tag : int;
  size : int;
  payload : 'a;
  sent_at : float;
}

type 'a t = {
  eng : Engine.t;
  prof : Profile.t;
  n : int;
  faults : Fault.Plan.t option;
  tx : Resource.t array;
  rx : Resource.t array;
  mailboxes : 'a envelope Channel.t array;
  xfer_names : string array; (* [src * n + dst]: "xfer-<src>-><dst>" *)
  deliver_names : string array; (* [src * n + dst]: "deliver-<src>-><dst>" *)
  mutable sent : int;
  mutable bytes : int;
  mutable delivered : int;
  mutable queue_ns : float; (* summed send-to-delivery time *)
  mutable in_flight : int;
}

(* Process names for every link, formatted once here rather than per
   message: a spawn's name only shows in a failure report, but
   formatting it cost as much as the spawn itself. *)
let link_names nodes fmt =
  Array.init (nodes * nodes) (fun i -> Printf.sprintf fmt (i / nodes) (i mod nodes))

let create ?faults eng prof ~nodes =
  if nodes < 1 then invalid_arg "Network.create: need at least one node";
  {
    eng;
    prof;
    n = nodes;
    faults;
    tx = Array.init nodes (fun _ -> Resource.create 1);
    rx = Array.init nodes (fun _ -> Resource.create 1);
    mailboxes = Array.init nodes (fun _ -> Channel.create ());
    xfer_names = link_names nodes "xfer-%d->%d";
    deliver_names = link_names nodes "deliver-%d->%d";
    sent = 0;
    bytes = 0;
    delivered = 0;
    queue_ns = 0.0;
    in_flight = 0;
  }

let check_node t i what =
  if i < 0 || i >= t.n then
    invalid_arg (Printf.sprintf "Network.%s: node %d outside [0,%d)" what i t.n)

(* Enqueue the envelope's journey: wire latency, then the receiver's RX
   NIC for [wire], then the mailbox — unless the destination has crashed
   by the time the message lands. *)
let spawn_deliver t env wire =
  Engine.spawn t.eng ~name:t.deliver_names.((env.src * t.n) + env.dst)
    (fun () ->
      Engine.delay t.eng t.prof.Profile.latency_ns;
      Resource.with_resource t.eng t.rx.(env.dst) (fun () ->
          Engine.delay t.eng wire);
      t.in_flight <- t.in_flight - 1;
      let now = Engine.now t.eng in
      let blackholed =
        match t.faults with
        | Some plan when Fault.Plan.crashed plan ~node:env.dst ~now ->
            Fault.Plan.note_blackholed plan;
            true
        | _ -> false
      in
      if not blackholed then begin
        t.delivered <- t.delivered + 1;
        t.queue_ns <- t.queue_ns +. (now -. env.sent_at);
        (match Trace.current () with
        | Some tr ->
            Trace.add_counter tr ~lane:"net" ~name:"net_in_flight" ~t:now
              ~value:(float_of_int t.in_flight)
        | None -> ());
        Channel.send t.mailboxes.(env.dst) env
      end)

let isend t ~src ~dst ?(tag = 0) ?(phase = "net") ~size payload =
  check_node t src "isend";
  check_node t dst "isend";
  if size < 0 then invalid_arg "Network.isend: negative size";
  t.sent <- t.sent + 1;
  t.bytes <- t.bytes + size;
  let now0 = Engine.now t.eng in
  (* Per-message injection decisions.  [on_send] is consulted for every
     message (whether or not an endpoint has crashed) so the decision
     stream depends only on the send sequence, not on crash timing. *)
  let verdict =
    match t.faults with
    | None -> None
    | Some plan -> Some (plan, Fault.Plan.on_send plan ~src ~dst ~tag ~size ~now:now0)
  in
  let discarded =
    match verdict with
    | None -> false
    | Some (plan, v) ->
        if
          Fault.Plan.crashed plan ~node:src ~now:now0
          || Fault.Plan.crashed plan ~node:dst ~now:now0
        then begin
          Fault.Plan.note_blackholed plan;
          true
        end
        else if v.Fault.Plan.drop then begin
          Fault.Plan.note_dropped plan;
          true
        end
        else false
  in
  if not discarded then begin
    let copies =
      match verdict with
      | Some (plan, v) when v.Fault.Plan.duplicate ->
          Fault.Plan.note_duplicated plan;
          2
      | _ -> 1
    in
    let extra_delay_ns =
      match verdict with
      | Some (plan, v) when v.Fault.Plan.extra_delay_ns > 0.0 ->
          Fault.Plan.note_delayed plan;
          v.Fault.Plan.extra_delay_ns
      | _ -> 0.0
    in
    let wire =
      match t.faults with
      | None -> Profile.transfer_ns t.prof size
      | Some plan ->
          Profile.transfer_ns t.prof size *. Fault.Plan.wire_factor plan ~src ~dst
    in
    t.in_flight <- t.in_flight + copies;
    (* Attribute the message's latency/bandwidth split at send time (the
       cut-through model computes both up front); per-message host
       overhead is the sender's CPU and is charged by the caller via
       Machine.compute under its own phase. *)
    (match Obs.Profile.current () with
    | Some p ->
        Obs.Profile.charge p ~path:[ phase; "net_latency" ]
          t.prof.Profile.latency_ns;
        Obs.Profile.charge p ~path:[ phase; "net_bandwidth" ] wire
    | None -> ());
    (match Trace.current () with
    | Some tr ->
        Trace.add_instant tr ~lane:"net"
          ~label:(Printf.sprintf "send %d->%d (%dB)" src dst size)
          ~t:now0;
        Trace.add_counter tr ~lane:"net" ~name:"net_in_flight" ~t:now0
          ~value:(float_of_int t.in_flight)
    | None -> ());
    let env = { src; dst; tag; size; payload; sent_at = now0 } in
    (* The transfer is modelled cut-through: the sender's TX NIC is busy for
       [wire]; the head of the message reaches the receiver after [latency],
       at which point the receiver's RX NIC is busy for [wire] as the body
       streams in.  TX and RX occupancy overlap, so an isolated message takes
       [latency + wire] end-to-end while a saturated NIC still sustains the
       full bandwidth.  A delay spike stalls the TX NIC (not the message in
       flight), so per-link FIFO order — MPI non-overtaking — is preserved;
       a duplicate occupies the TX NIC twice and lands as two envelopes. *)
    Engine.spawn t.eng ~name:t.xfer_names.((src * t.n) + dst) (fun () ->
        Resource.acquire t.eng t.tx.(src);
        if extra_delay_ns > 0.0 then Engine.delay t.eng extra_delay_ns;
        for _copy = 1 to copies do
          spawn_deliver t env wire;
          Engine.delay t.eng wire
        done;
        Resource.release t.eng t.tx.(src))
  end

let recv t ~dst =
  check_node t dst "recv";
  Channel.recv t.eng t.mailboxes.(dst)

let recv_timeout t ~dst ~timeout_ns =
  check_node t dst "recv_timeout";
  Channel.recv_timeout t.eng t.mailboxes.(dst) ~timeout_ns

let messages_sent t = t.sent
let bytes_sent t = t.bytes
let messages_delivered t = t.delivered

let tx_utilization t ~node =
  check_node t node "tx_utilization";
  Resource.utilization t.tx.(node) ~now:(Engine.now t.eng)

let record_metrics t reg =
  Obs.Metrics.incr reg "net_messages_sent" t.sent;
  Obs.Metrics.incr reg "net_bytes_sent" t.bytes;
  Obs.Metrics.incr reg "net_messages_delivered" t.delivered;
  Obs.Metrics.incr_f reg "net_queue_ns" t.queue_ns;
  (match t.faults with
  | None -> ()
  | Some plan ->
      let s = Fault.Plan.stats plan in
      Obs.Metrics.incr reg "net_faults_dropped" s.Fault.Plan.dropped;
      Obs.Metrics.incr reg "net_faults_duplicated" s.Fault.Plan.duplicated;
      Obs.Metrics.incr reg "net_faults_delayed" s.Fault.Plan.delayed;
      Obs.Metrics.incr reg "net_faults_blackholed" s.Fault.Plan.blackholed);
  let now = Engine.now t.eng in
  for i = 0 to t.n - 1 do
    let labels = [ ("node", string_of_int i) ] in
    Obs.Metrics.gauge reg ~labels "net_tx_busy_ns"
      (Resource.busy_ns t.tx.(i) ~now);
    Obs.Metrics.gauge reg ~labels "net_rx_busy_ns"
      (Resource.busy_ns t.rx.(i) ~now)
  done
