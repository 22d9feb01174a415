(* Tests for the lib/exec domain-pool sweep executor: submission-order
   determinism, exception surfacing without deadlock, and a parallel
   sweep of real simulation jobs against a sequential one. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Pool basics *)

let test_map_preserves_order () =
  Exec.Pool.with_pool ~jobs:3 (fun p ->
      let xs = Array.init 37 (fun i -> i) in
      let ys = Exec.Pool.map p ~f:(fun i -> (i * 7) + 1) xs in
      Alcotest.(check (array int))
        "results indexed like inputs"
        (Array.map (fun i -> (i * 7) + 1) xs)
        ys)

let test_map_empty_and_small () =
  Exec.Pool.with_pool ~jobs:4 (fun p ->
      check_int "empty" 0 (Array.length (Exec.Pool.map p ~f:(fun x -> x) [||]));
      (* Fewer tasks than workers: the idle workers must not wedge the
         batch. *)
      Alcotest.(check (array int))
        "singleton" [| 9 |]
        (Exec.Pool.map p ~f:(fun x -> x * x) [| 3 |]))

let test_pool_reusable_across_batches () =
  Exec.Pool.with_pool ~jobs:2 (fun p ->
      for round = 1 to 5 do
        let ys = Exec.Pool.map p ~f:(fun i -> i + round) (Array.init 8 Fun.id) in
        check_int "round result" (7 + round) ys.(7)
      done)

let test_create_rejects_zero_jobs () =
  check_bool "jobs:0 rejected" true
    (match Exec.Pool.create ~jobs:0 with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Exception handling: a raising job must not deadlock or poison *)

exception Boom of int

let test_exception_surfaces_without_deadlock () =
  let ran = Atomic.make 0 in
  Exec.Pool.with_pool ~jobs:3 (fun p ->
      let raised =
        match
          Exec.Pool.map p
            ~f:(fun i ->
              Atomic.incr ran;
              if i = 5 then raise (Boom i);
              i)
            (Array.init 16 Fun.id)
        with
        | _ -> None
        | exception Boom i -> Some i
      in
      check_bool "exception reached the caller" true (raised = Some 5);
      (* Every task ran to completion before the raise was re-thrown:
         nothing was abandoned and no worker deadlocked. *)
      check_int "all 16 tasks executed" 16 (Atomic.get ran);
      (* The pool survives for the next batch. *)
      let ys = Exec.Pool.map p ~f:(fun i -> i * 2) (Array.init 4 Fun.id) in
      Alcotest.(check (array int)) "pool still works" [| 0; 2; 4; 6 |] ys)

let test_first_exception_in_submission_order () =
  Exec.Pool.with_pool ~jobs:4 (fun p ->
      match
        Exec.Pool.map p
          ~f:(fun i -> if i >= 10 then raise (Boom i) else i)
          (Array.init 16 Fun.id)
      with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom i -> check_int "lowest failing index wins" 10 i)

(* ------------------------------------------------------------------ *)
(* run *)

let test_run_matches_sequential () =
  let thunks = List.init 23 (fun i () -> i * i) in
  Alcotest.(check (list int))
    "jobs:4 = sequential"
    (List.map (fun f -> f ()) thunks)
    (Exec.Pool.run ~jobs:4 thunks)

(* The guarantee on real work: a parallel simulation sweep is
   bit-identical to a sequential [List.map].  Tiny scenario, two
   batches, two methods — enough to cross domains without slowing the
   suite. *)
let test_simulation_sweep_deterministic () =
  let sc = Workload.Scenario.with_queries (1 lsl 12) Workload.Scenario.ci in
  let keys, queries = Dispatch.Runner.workload sc in
  let grid =
    List.concat_map
      (fun batch ->
        List.map
          (fun method_id -> (batch, method_id))
          [ Dispatch.Methods.A; Dispatch.Methods.C3 ])
      [ 8 * 1024; 32 * 1024 ]
  in
  let cell (batch, method_id) =
    Dispatch.Runner.run
      (Workload.Scenario.with_batch sc batch)
      ~method_id ~keys ~queries
  in
  let par =
    Exec.Sweep.run ~jobs:2
      (List.map (fun k -> Exec.Job.make ~key:k (fun () -> cell k)) grid)
  in
  let seq = List.map (fun k -> (k, cell k)) grid in
  check_bool "parallel = sequential" true (Stdlib.compare par seq = 0)

(* ------------------------------------------------------------------ *)
(* Sweep *)

let test_sweep_keyed_order () =
  let js =
    List.init 9 (fun i -> Exec.Job.make ~key:(Printf.sprintf "k%d" i) (fun () -> i))
  in
  let out = Exec.Sweep.run ~jobs:3 js in
  Alcotest.(check (list (pair string int)))
    "keys travel with results in submission order"
    (List.init 9 (fun i -> (Printf.sprintf "k%d" i, i)))
    out

let test_sweep_default_jobs_positive () =
  check_bool "default jobs >= 1" true (Exec.Sweep.default_jobs () >= 1)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "exec"
    [
      ( "pool",
        [
          tc "map preserves order" `Quick test_map_preserves_order;
          tc "empty and small batches" `Quick test_map_empty_and_small;
          tc "reusable across batches" `Quick test_pool_reusable_across_batches;
          tc "rejects zero jobs" `Quick test_create_rejects_zero_jobs;
        ] );
      ( "exceptions",
        [
          tc "surfaces without deadlock" `Quick test_exception_surfaces_without_deadlock;
          tc "first in submission order" `Quick test_first_exception_in_submission_order;
        ] );
      ( "determinism",
        [
          tc "run matches sequential" `Quick test_run_matches_sequential;
          tc "simulation sweep bit-identical" `Quick test_simulation_sweep_deterministic;
        ] );
      ( "sweep",
        [
          tc "keyed submission order" `Quick test_sweep_keyed_order;
          tc "default jobs" `Quick test_sweep_default_jobs_positive;
        ] );
    ]
