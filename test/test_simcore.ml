(* Unit and property tests for the discrete-event engine and its
   synchronisation primitives. *)

open Simcore

let check_float = Alcotest.(check (float 1e-9))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Pqueue *)

let test_pqueue_order () =
  let q = Pqueue.create () in
  Pqueue.push q ~time:3.0 ~seq:0 "c";
  Pqueue.push q ~time:1.0 ~seq:1 "a";
  Pqueue.push q ~time:2.0 ~seq:2 "b";
  let pop_payload () =
    match Pqueue.pop q with Some (_, _, x) -> x | None -> "empty"
  in
  Alcotest.(check string) "first" "a" (pop_payload ());
  Alcotest.(check string) "second" "b" (pop_payload ());
  Alcotest.(check string) "third" "c" (pop_payload ());
  Alcotest.(check string) "drained" "empty" (pop_payload ())

let test_pqueue_fifo_ties () =
  let q = Pqueue.create () in
  for i = 0 to 9 do
    Pqueue.push q ~time:5.0 ~seq:i i
  done;
  for i = 0 to 9 do
    match Pqueue.pop q with
    | Some (_, _, x) -> check_int (Printf.sprintf "tie %d" i) i x
    | None -> Alcotest.fail "queue drained early"
  done

let test_pqueue_peek_and_clear () =
  let q = Pqueue.create () in
  Alcotest.(check (option (float 0.0))) "peek empty" None (Pqueue.peek_time q);
  Pqueue.push q ~time:7.0 ~seq:0 ();
  Alcotest.(check (option (float 0.0))) "peek" (Some 7.0) (Pqueue.peek_time q);
  check_int "length" 1 (Pqueue.length q);
  Pqueue.clear q;
  check_bool "cleared" true (Pqueue.is_empty q)

let test_pqueue_random_heap_property () =
  let g = Prng.Splitmix.create 42 in
  let q = Pqueue.create () in
  let n = 2000 in
  for i = 0 to n - 1 do
    Pqueue.push q ~time:(Prng.Splitmix.float g 100.0) ~seq:i i
  done;
  let last = ref neg_infinity in
  let count = ref 0 in
  let continue = ref true in
  while !continue do
    match Pqueue.pop q with
    | None -> continue := false
    | Some (t, _, _) ->
        check_bool "non-decreasing" true (t >= !last);
        last := t;
        incr count
  done;
  check_int "all popped" n !count

(* ------------------------------------------------------------------ *)
(* Engine *)

let test_engine_delay_advances_clock () =
  let eng = Engine.create () in
  let finished = ref 0.0 in
  Engine.spawn eng ~name:"p" (fun () ->
      Engine.delay eng 100.0;
      Engine.delay eng 50.0;
      finished := Engine.now eng);
  Engine.run eng;
  check_float "finish time" 150.0 !finished;
  check_float "clock" 150.0 (Engine.now eng)

let test_engine_parallel_processes () =
  let eng = Engine.create () in
  let order = ref [] in
  let record tag () = order := tag :: !order in
  Engine.spawn eng ~name:"slow" (fun () ->
      Engine.delay eng 20.0;
      record "slow" ());
  Engine.spawn eng ~name:"fast" (fun () ->
      Engine.delay eng 10.0;
      record "fast" ());
  Engine.run eng;
  Alcotest.(check (list string)) "completion order" [ "fast"; "slow" ]
    (List.rev !order);
  check_float "clock is max, not sum" 20.0 (Engine.now eng)

let test_engine_same_time_determinism () =
  (* Two runs produce the identical interleaving of same-timestamp events. *)
  let run () =
    let eng = Engine.create () in
    let order = ref [] in
    for i = 0 to 9 do
      Engine.spawn eng (fun () ->
          Engine.delay eng 5.0;
          order := i :: !order)
    done;
    Engine.run eng;
    List.rev !order
  in
  Alcotest.(check (list int)) "spawn order preserved" (run ()) (run ());
  Alcotest.(check (list int))
    "ascending" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] (run ())

let test_engine_failure_propagates () =
  let eng = Engine.create () in
  Engine.spawn eng ~name:"bomb" (fun () ->
      Engine.delay eng 1.0;
      failwith "boom");
  match Engine.run eng with
  | () -> Alcotest.fail "expected Process_failure"
  | exception Engine.Process_failure (name, Failure msg) ->
      check_bool "name" true (name = "bomb");
      check_bool "msg" true (msg = "boom")
  | exception e -> raise e

let test_engine_negative_delay_rejected () =
  let eng = Engine.create () in
  Engine.spawn eng (fun () -> Engine.delay eng (-1.0));
  match Engine.run eng with
  | () -> Alcotest.fail "expected failure"
  | exception Engine.Process_failure (_, Invalid_argument _) -> ()
  | exception e -> raise e

let test_engine_schedule_in_past_rejected () =
  let eng = Engine.create () in
  Engine.spawn eng (fun () -> Engine.delay eng 10.0);
  Engine.run eng;
  Alcotest.check_raises "past" (Invalid_argument
    "Engine.schedule_at: time 5 is before now 10")
    (fun () -> Engine.schedule_at eng 5.0 (fun () -> ()))

let test_engine_run_until () =
  let eng = Engine.create () in
  let ticks = ref 0 in
  Engine.spawn eng (fun () ->
      for _ = 1 to 10 do
        Engine.delay eng 10.0;
        incr ticks
      done);
  Engine.run_until eng 35.0;
  check_int "ticks at t=35" 3 !ticks;
  Engine.run eng;
  check_int "ticks at end" 10 !ticks

let test_engine_live_count () =
  let eng = Engine.create () in
  check_int "none spawned" 0 (Engine.processes_spawned eng);
  Engine.spawn eng (fun () -> Engine.delay eng 5.0);
  Engine.spawn eng (fun () -> Engine.delay eng 15.0);
  check_int "spawned" 2 (Engine.processes_spawned eng);
  Engine.run_until eng 10.0;
  check_int "one live" 1 (Engine.processes_live eng);
  Engine.run eng;
  check_int "none live" 0 (Engine.processes_live eng)

(* ------------------------------------------------------------------ *)
(* Channel *)

let test_channel_buffered_send_recv () =
  let eng = Engine.create () in
  let ch = Channel.create () in
  let got = ref [] in
  Engine.spawn eng (fun () ->
      Channel.send ch 1;
      Channel.send ch 2;
      Channel.send ch 3);
  Engine.spawn eng (fun () ->
      for _ = 1 to 3 do
        got := Channel.recv eng ch :: !got
      done);
  Engine.run eng;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3 ] (List.rev !got)

let test_channel_blocking_recv () =
  let eng = Engine.create () in
  let ch = Channel.create () in
  let received_at = ref nan in
  Engine.spawn eng ~name:"consumer" (fun () ->
      ignore (Channel.recv eng ch);
      received_at := Engine.now eng);
  Engine.spawn eng ~name:"producer" (fun () ->
      Engine.delay eng 42.0;
      Channel.send ch "hello");
  Engine.run eng;
  check_float "recv unblocked at send time" 42.0 !received_at

let test_channel_multiple_waiters_fifo () =
  let eng = Engine.create () in
  let ch = Channel.create () in
  let got = Array.make 3 (-1) in
  for i = 0 to 2 do
    Engine.spawn eng (fun () -> got.(i) <- Channel.recv eng ch)
  done;
  Engine.spawn eng (fun () ->
      Engine.delay eng 1.0;
      Channel.send ch 10;
      Channel.send ch 20;
      Channel.send ch 30);
  Engine.run eng;
  Alcotest.(check (array int)) "waiters served in order" [| 10; 20; 30 |] got

let test_channel_close_wakes_waiters () =
  let eng = Engine.create () in
  let ch : int Channel.t = Channel.create () in
  let outcome = ref "pending" in
  Engine.spawn eng (fun () ->
      match Channel.recv eng ch with
      | _ -> outcome := "value"
      | exception Channel.Closed -> outcome := "closed");
  Engine.spawn eng (fun () ->
      Engine.delay eng 5.0;
      Channel.close eng ch);
  Engine.run eng;
  Alcotest.(check string) "closed" "closed" !outcome

let test_channel_close_keeps_buffered () =
  let eng = Engine.create () in
  let ch = Channel.create () in
  Channel.send ch 7;
  Engine.spawn eng (fun () ->
      Channel.close eng ch;
      check_int "buffered value survives close" 7 (Channel.recv eng ch);
      (match Channel.recv eng ch with
      | _ -> Alcotest.fail "expected Closed"
      | exception Channel.Closed -> ()));
  Engine.run eng

(* ------------------------------------------------------------------ *)
(* Resource *)

let test_resource_serialises () =
  let eng = Engine.create () in
  let r = Resource.create 1 in
  let finish = Array.make 3 0.0 in
  for i = 0 to 2 do
    Engine.spawn eng (fun () ->
        Resource.with_resource eng r (fun () -> Engine.delay eng 10.0);
        finish.(i) <- Engine.now eng)
  done;
  Engine.run eng;
  Alcotest.(check (array (float 1e-9)))
    "serialised" [| 10.0; 20.0; 30.0 |] finish

let test_resource_capacity_two () =
  let eng = Engine.create () in
  let r = Resource.create 2 in
  let finish = Array.make 4 0.0 in
  for i = 0 to 3 do
    Engine.spawn eng (fun () ->
        Resource.with_resource eng r (fun () -> Engine.delay eng 10.0);
        finish.(i) <- Engine.now eng)
  done;
  Engine.run eng;
  Alcotest.(check (array (float 1e-9)))
    "two at a time" [| 10.0; 10.0; 20.0; 20.0 |] finish

let test_resource_utilization () =
  let eng = Engine.create () in
  let r = Resource.create 1 in
  Engine.spawn eng (fun () ->
      Engine.delay eng 10.0;
      Resource.with_resource eng r (fun () -> Engine.delay eng 30.0);
      Engine.delay eng 10.0);
  Engine.run eng;
  check_float "busy 30 of 50" 0.6 (Resource.utilization r ~now:(Engine.now eng))

let test_resource_release_unheld_rejected () =
  let eng = Engine.create () in
  let r = Resource.create 1 in
  Alcotest.check_raises "release unheld"
    (Invalid_argument "Resource.release: not held") (fun () ->
      Resource.release eng r)

let test_resource_handoff_no_steal () =
  (* A released unit goes to the waiter even if a third process tries to
     acquire at the same timestamp after the hand-off was decided. *)
  let eng = Engine.create () in
  let r = Resource.create 1 in
  let order = ref [] in
  Engine.spawn eng ~name:"holder" (fun () ->
      Resource.acquire eng r;
      Engine.delay eng 10.0;
      Resource.release eng r);
  Engine.spawn eng ~name:"waiter" (fun () ->
      Engine.delay eng 1.0;
      Resource.acquire eng r;
      order := "waiter" :: !order;
      Resource.release eng r);
  Engine.spawn eng ~name:"late" (fun () ->
      Engine.delay eng 10.0;
      Resource.acquire eng r;
      order := "late" :: !order;
      Resource.release eng r);
  Engine.run eng;
  Alcotest.(check (list string)) "waiter first" [ "waiter"; "late" ]
    (List.rev !order)

(* ------------------------------------------------------------------ *)
(* Simtime *)

let test_simtime_units () =
  check_float "us" 1000.0 (Simtime.us 1.0);
  check_float "ms" 1e6 (Simtime.ms 1.0);
  check_float "s" 1e9 (Simtime.s 1.0);
  check_float "roundtrip" 2.5 (Simtime.to_s (Simtime.s 2.5));
  check_float "bw" 0.138 (Simtime.bytes_per_ns_of_mb_per_s 138.0);
  check_float "bw inverse" 138.0
    (Simtime.mb_per_s_of_bytes_per_ns (Simtime.bytes_per_ns_of_mb_per_s 138.0))

let test_simtime_pp () =
  Alcotest.(check string) "ns" "12.00 ns" (Simtime.to_string 12.0);
  Alcotest.(check string) "us" "1.50 us" (Simtime.to_string 1500.0);
  Alcotest.(check string) "ms" "320.00 ms" (Simtime.to_string 3.2e8);
  Alcotest.(check string) "s" "3.200 s" (Simtime.to_string 3.2e9)

(* ------------------------------------------------------------------ *)
(* Trace *)

let test_trace_ambient_scoping () =
  Alcotest.(check bool) "no ambient trace" true (Trace.current () = None);
  let tr = Trace.create () in
  Trace.with_recording tr (fun () ->
      Alcotest.(check bool) "ambient inside" true (Trace.current () = Some tr));
  Alcotest.(check bool) "restored" true (Trace.current () = None)

let test_trace_restores_on_exception () =
  let tr = Trace.create () in
  (try Trace.with_recording tr (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check bool) "restored after raise" true (Trace.current () = None)

let test_trace_spans_and_busy () =
  let tr = Trace.create () in
  Trace.add tr ~lane:"a" ~label:"x" ~t0:0.0 ~t1:10.0;
  Trace.add tr ~lane:"b" ~label:"y" ~t0:5.0 ~t1:15.0;
  Trace.add tr ~lane:"a" ~label:"z" ~t0:20.0 ~t1:30.0;
  check_int "spans" 3 (List.length (Trace.spans tr));
  Alcotest.(check (list string)) "lanes in order" [ "a"; "b" ] (Trace.lanes tr);
  check_float "lane a busy" 20.0 (Trace.total_busy tr ~lane:"a");
  check_float "lane b busy" 10.0 (Trace.total_busy tr ~lane:"b")

let test_trace_rejects_negative_span () =
  let tr = Trace.create () in
  Alcotest.check_raises "backwards span"
    (Invalid_argument "Trace.add: span ends before it starts") (fun () ->
      Trace.add tr ~lane:"a" ~label:"x" ~t0:5.0 ~t1:1.0)

let test_trace_gantt_renders () =
  let tr = Trace.create () in
  Trace.add tr ~lane:"master" ~label:"busy" ~t0:0.0 ~t1:50.0;
  Trace.add tr ~lane:"slave" ~label:"busy" ~t0:50.0 ~t1:100.0;
  let g = Trace.render_gantt ~width:20 tr in
  check_bool "has master lane" true
    (String.length g > 0 && String.contains g '#');
  (* master busy half the window *)
  check_bool "percentages shown" true
    (List.exists (fun line ->
         String.length line > 5 && String.sub line 0 6 = "master")
       (String.split_on_char '\n' g))

let test_trace_empty_gantt () =
  Alcotest.(check string) "empty" "(empty trace)\n"
    (Trace.render_gantt (Trace.create ()))

(* ------------------------------------------------------------------ *)
(* A small end-to-end producer/consumer pipeline *)

let test_pipeline_end_to_end () =
  let eng = Engine.create () in
  let ch = Channel.create () in
  let nic = Resource.create 1 in
  let consumed = ref 0 in
  Engine.spawn eng ~name:"producer" (fun () ->
      for i = 1 to 100 do
        Engine.delay eng 2.0;
        Resource.with_resource eng nic (fun () -> Engine.delay eng 1.0);
        Channel.send ch i
      done;
      Channel.close eng ch);
  Engine.spawn eng ~name:"consumer" (fun () ->
      let rec loop () =
        match Channel.recv eng ch with
        | v ->
            consumed := !consumed + v;
            loop ()
        | exception Channel.Closed -> ()
      in
      loop ());
  Engine.run eng;
  check_int "sum" 5050 !consumed;
  check_float "300ns of production" 300.0 (Engine.now eng)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "simcore"
    [
      ( "pqueue",
        [
          tc "ordering" `Quick test_pqueue_order;
          tc "fifo ties" `Quick test_pqueue_fifo_ties;
          tc "peek and clear" `Quick test_pqueue_peek_and_clear;
          tc "random heap property" `Quick test_pqueue_random_heap_property;
        ] );
      ( "engine",
        [
          tc "delay advances clock" `Quick test_engine_delay_advances_clock;
          tc "parallel processes" `Quick test_engine_parallel_processes;
          tc "deterministic ties" `Quick test_engine_same_time_determinism;
          tc "failure propagates" `Quick test_engine_failure_propagates;
          tc "negative delay rejected" `Quick test_engine_negative_delay_rejected;
          tc "schedule in past rejected" `Quick test_engine_schedule_in_past_rejected;
          tc "run_until" `Quick test_engine_run_until;
          tc "live count" `Quick test_engine_live_count;
        ] );
      ( "channel",
        [
          tc "buffered send/recv" `Quick test_channel_buffered_send_recv;
          tc "blocking recv" `Quick test_channel_blocking_recv;
          tc "waiters fifo" `Quick test_channel_multiple_waiters_fifo;
          tc "close wakes waiters" `Quick test_channel_close_wakes_waiters;
          tc "close keeps buffered" `Quick test_channel_close_keeps_buffered;
        ] );
      ( "resource",
        [
          tc "serialises" `Quick test_resource_serialises;
          tc "capacity two" `Quick test_resource_capacity_two;
          tc "utilization" `Quick test_resource_utilization;
          tc "release unheld" `Quick test_resource_release_unheld_rejected;
          tc "hand-off, no steal" `Quick test_resource_handoff_no_steal;
        ] );
      ( "simtime",
        [
          tc "units" `Quick test_simtime_units;
          tc "pretty printing" `Quick test_simtime_pp;
        ] );
      ( "trace",
        [
          tc "ambient scoping" `Quick test_trace_ambient_scoping;
          tc "restores on exception" `Quick test_trace_restores_on_exception;
          tc "spans and busy" `Quick test_trace_spans_and_busy;
          tc "negative span" `Quick test_trace_rejects_negative_span;
          tc "gantt renders" `Quick test_trace_gantt_renders;
          tc "empty gantt" `Quick test_trace_empty_gantt;
        ] );
      ("pipeline", [ tc "end to end" `Quick test_pipeline_end_to_end ]);
    ]
