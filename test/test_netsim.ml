(* Tests for network profiles and the crossbar network simulator. *)

open Simcore
open Netsim

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-6))

let test_profile_myrinet_numbers () =
  let p = Profile.myrinet in
  check_float "latency 7us" 7000.0 p.Profile.latency_ns;
  check_float "bw 138 MB/s" 0.138 p.Profile.bandwidth;
  (* 10 KB transfer ~ 74 us, dominating the 7 us latency (paper 2.2). *)
  let t = Profile.transfer_ns p (10 * 1024) in
  check_bool "10KB transfer dominates latency" true (t > 10.0 *. p.Profile.latency_ns)

let test_profile_gige_needs_bigger_batches () =
  let p = Profile.gigabit_ethernet in
  (* Paper: ~200 KB needed before transmission dominates latency. *)
  let t_small = Profile.transfer_ns p (10 * 1024) in
  check_bool "10 KB below latency" true (t_small < p.Profile.latency_ns);
  let t_big = Profile.transfer_ns p (200 * 1024) in
  check_bool "200 KB above latency" true (t_big > 10.0 *. p.Profile.latency_ns)

let test_profile_delivery_and_scale () =
  let p = Profile.myrinet in
  check_float "delivery = transfer + latency"
    (Profile.transfer_ns p 1000 +. p.Profile.latency_ns)
    (Profile.delivery_ns p 1000);
  let p2 = Profile.scale_bandwidth p 2.0 in
  check_float "scaled" (2.0 *. p.Profile.bandwidth) p2.Profile.bandwidth

let test_single_message_timing () =
  let eng = Engine.create () in
  let net = Network.create eng Profile.myrinet ~nodes:2 in
  let arrived = ref nan in
  Engine.spawn eng ~name:"sender" (fun () ->
      Network.isend net ~src:0 ~dst:1 ~size:1380 "hello");
  Engine.spawn eng ~name:"receiver" (fun () ->
      let env = Network.recv net ~dst:1 in
      arrived := Engine.now eng;
      Alcotest.(check string) "payload" "hello" env.Network.payload;
      check_int "src" 0 env.Network.src;
      check_int "size" 1380 env.Network.size);
  Engine.run eng;
  (* 1380 B at 0.138 B/ns = 10 us wire + 7 us latency = 17 us. *)
  check_float "cut-through delivery" 17000.0 !arrived

let test_isend_does_not_block_sender () =
  let eng = Engine.create () in
  let net = Network.create eng Profile.myrinet ~nodes:2 in
  let sender_done = ref nan in
  Engine.spawn eng (fun () ->
      Network.isend net ~src:0 ~dst:1 ~size:1_000_000 ();
      sender_done := Engine.now eng);
  Engine.spawn eng (fun () -> ignore (Network.recv net ~dst:1));
  Engine.run eng;
  check_float "sender returned immediately" 0.0 !sender_done

let test_tx_serialisation () =
  (* Two messages from the same source to different destinations share the
     TX NIC: the second is delayed by the first's wire time. *)
  let eng = Engine.create () in
  let net = Network.create eng Profile.myrinet ~nodes:3 in
  let t1 = ref nan and t2 = ref nan in
  let size = 13800 in
  (* 100 us wire *)
  Engine.spawn eng (fun () ->
      Network.isend net ~src:0 ~dst:1 ~size ();
      Network.isend net ~src:0 ~dst:2 ~size ());
  Engine.spawn eng (fun () ->
      ignore (Network.recv net ~dst:1);
      t1 := Engine.now eng);
  Engine.spawn eng (fun () ->
      ignore (Network.recv net ~dst:2);
      t2 := Engine.now eng);
  Engine.run eng;
  let wire = 100_000.0 and lat = 7000.0 in
  check_float "first" (wire +. lat) !t1;
  check_float "second delayed by first's wire" (2.0 *. wire +. lat) !t2

let test_rx_serialisation () =
  (* Two senders to one destination: deliveries serialise on the RX NIC. *)
  let eng = Engine.create () in
  let net = Network.create eng Profile.myrinet ~nodes:3 in
  let times = ref [] in
  let size = 13800 in
  Engine.spawn eng (fun () -> Network.isend net ~src:0 ~dst:2 ~size ());
  Engine.spawn eng (fun () -> Network.isend net ~src:1 ~dst:2 ~size ());
  Engine.spawn eng (fun () ->
      for _ = 1 to 2 do
        ignore (Network.recv net ~dst:2);
        times := Engine.now eng :: !times
      done);
  Engine.run eng;
  (match List.rev !times with
  | [ a; b ] ->
      let wire = 100_000.0 and lat = 7000.0 in
      check_float "first arrival" (lat +. wire) a;
      check_float "second queued behind first" (lat +. (2.0 *. wire)) b
  | _ -> Alcotest.fail "expected two messages")

let test_fifo_per_destination () =
  let eng = Engine.create () in
  let net = Network.create eng Profile.myrinet ~nodes:2 in
  let got = ref [] in
  Engine.spawn eng (fun () ->
      for i = 1 to 5 do
        Network.isend net ~src:0 ~dst:1 ~size:100 i
      done);
  Engine.spawn eng (fun () ->
      for _ = 1 to 5 do
        got := (Network.recv net ~dst:1).Network.payload :: !got
      done);
  Engine.run eng;
  Alcotest.(check (list int)) "in order" [ 1; 2; 3; 4; 5 ] (List.rev !got)

let test_accounting () =
  let eng = Engine.create () in
  let net = Network.create eng Profile.myrinet ~nodes:2 in
  Engine.spawn eng (fun () ->
      Network.isend net ~src:0 ~dst:1 ~size:1000 ();
      Network.isend net ~src:0 ~dst:1 ~size:2000 ());
  Engine.spawn eng (fun () ->
      ignore (Network.recv net ~dst:1);
      ignore (Network.recv net ~dst:1));
  Engine.run eng;
  check_int "messages" 2 (Network.messages_sent net);
  check_int "bytes" 3000 (Network.bytes_sent net);
  check_int "delivered" 2 (Network.messages_delivered net);
  check_bool "tx was busy" true (Network.tx_utilization net ~node:0 > 0.0);
  check_float "idle node tx" 0.0 (Network.tx_utilization net ~node:1)

let test_zero_size_message () =
  let eng = Engine.create () in
  let net = Network.create eng Profile.myrinet ~nodes:2 in
  let arrived = ref nan in
  Engine.spawn eng (fun () -> Network.isend net ~src:0 ~dst:1 ~size:0 "eof");
  Engine.spawn eng (fun () ->
      ignore (Network.recv net ~dst:1);
      arrived := Engine.now eng);
  Engine.run eng;
  check_float "latency only" 7000.0 !arrived

let test_bad_node_rejected () =
  let eng = Engine.create () in
  let net = Network.create eng Profile.myrinet ~nodes:2 in
  check_bool "bad dst raises" true
    (match Network.isend net ~src:0 ~dst:5 ~size:1 () with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_throughput_saturates_bandwidth () =
  (* Pipelined messages through one TX NIC: total time ~ total bytes /
     bandwidth, not messages x delivery time. *)
  let eng = Engine.create () in
  let net = Network.create eng Profile.myrinet ~nodes:2 in
  let n = 50 and size = 13800 in
  Engine.spawn eng (fun () ->
      for i = 1 to n do
        Network.isend net ~src:0 ~dst:1 ~size i
      done);
  let finish = ref nan in
  Engine.spawn eng (fun () ->
      for _ = 1 to n do
        ignore (Network.recv net ~dst:1)
      done;
      finish := Engine.now eng);
  Engine.run eng;
  let wire = Profile.transfer_ns Profile.myrinet size in
  let ideal = (float_of_int n *. wire) +. 7000.0 +. wire in
  check_bool "within 5% of bandwidth bound" true
    (!finish < ideal *. 1.05 && !finish >= float_of_int n *. wire)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "netsim"
    [
      ( "profile",
        [
          tc "myrinet numbers" `Quick test_profile_myrinet_numbers;
          tc "gige batches" `Quick test_profile_gige_needs_bigger_batches;
          tc "delivery and scaling" `Quick test_profile_delivery_and_scale;
        ] );
      ( "network",
        [
          tc "single message timing" `Quick test_single_message_timing;
          tc "isend non-blocking" `Quick test_isend_does_not_block_sender;
          tc "tx serialisation" `Quick test_tx_serialisation;
          tc "rx serialisation" `Quick test_rx_serialisation;
          tc "fifo per destination" `Quick test_fifo_per_destination;
          tc "accounting" `Quick test_accounting;
          tc "zero-size message" `Quick test_zero_size_message;
          tc "bad node" `Quick test_bad_node_rejected;
          tc "throughput saturates" `Quick test_throughput_saturates_bandwidth;
        ] );
    ]
