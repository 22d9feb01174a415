(* Tests for the point-to-point shim over Network: a send reaches its
   rank, sends on one pair keep their order, and a bad rank is refused. *)

open Simcore
open Netsim

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let with_comm ~ranks f =
  let eng = Engine.create () in
  let comm = Mpi.create eng Profile.myrinet ~ranks in
  f eng comm;
  Engine.run eng

let test_send_recv_roundtrip () =
  with_comm ~ranks:2 (fun eng comm ->
      Engine.spawn eng (fun () -> Mpi.isend comm ~src:0 ~dst:1 ~size:64 "hi");
      Engine.spawn eng (fun () ->
          let payload = Mpi.recv comm ~rank:1 () in
          Alcotest.(check string) "payload" "hi" payload;
          check_bool "arrives after the send" true (Engine.now eng > 0.0)))

let test_non_overtaking_same_pair () =
  with_comm ~ranks:2 (fun eng comm ->
      Engine.spawn eng (fun () ->
          for i = 1 to 10 do
            Mpi.isend comm ~src:0 ~dst:1 ~size:8 i
          done);
      Engine.spawn eng (fun () ->
          for i = 1 to 10 do
            check_int "fifo order" i (Mpi.recv comm ~rank:1 ())
          done))

let test_bad_rank_rejected () =
  let eng = Engine.create () in
  let comm = Mpi.create eng Profile.myrinet ~ranks:2 in
  check_bool "bad rank" true
    (match Mpi.isend comm ~src:0 ~dst:7 ~size:1 () with
    | _ -> false
    | exception Invalid_argument _ -> true)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "mpi"
    [
      ( "point-to-point",
        [
          tc "roundtrip" `Quick test_send_recv_roundtrip;
          tc "non-overtaking" `Quick test_non_overtaking_same_pair;
          tc "bad rank" `Quick test_bad_rank_rejected;
        ] );
    ]
