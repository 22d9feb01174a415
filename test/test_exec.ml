(* Tests for the lib/exec sweep executor: key-order determinism,
   exception surfacing after every cell has run, and a parallel sweep of
   real simulation cells against a sequential one. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Ordering *)

let test_map_preserves_order () =
  let xs = List.init 37 Fun.id in
  Alcotest.(check (list (pair int int)))
    "results in key order"
    (List.map (fun i -> (i, (i * 7) + 1)) xs)
    (Exec.sweep ~jobs:3 (fun i -> (i * 7) + 1) xs)

let test_map_empty_and_small () =
  check_int "empty" 0 (List.length (Exec.sweep ~jobs:4 Fun.id []));
  (* Fewer cells than workers: only as many domains as cells. *)
  Alcotest.(check (list (pair int int)))
    "two cells, four workers" [ (3, 9); (4, 16) ]
    (Exec.sweep ~jobs:4 (fun x -> x * x) [ 3; 4 ])

(* ------------------------------------------------------------------ *)
(* Exceptions: every cell runs, then the lowest raising key wins *)

exception Boom of int

let test_exception_surfaces_without_deadlock () =
  List.iter
    (fun jobs ->
      let ran = Atomic.make 0 in
      let raised =
        match
          Exec.sweep ~jobs
            (fun i ->
              Atomic.incr ran;
              if i = 5 || i = 11 then raise (Boom i);
              i)
            (List.init 16 Fun.id)
        with
        | _ -> None
        | exception Boom i -> Some i
      in
      check_bool
        (Printf.sprintf "jobs %d: lowest raising key reached the caller" jobs)
        true (raised = Some 5);
      check_int
        (Printf.sprintf "jobs %d: all 16 cells ran" jobs)
        16 (Atomic.get ran))
    [ 1; 3 ]

let test_first_exception_in_submission_order () =
  match
    Exec.sweep ~jobs:4
      (fun i -> if i >= 10 then raise (Boom i) else i)
      (List.init 16 Fun.id)
  with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom i -> check_int "lowest failing key wins" 10 i

(* ------------------------------------------------------------------ *)
(* Determinism *)

let test_run_matches_sequential () =
  let keys = List.init 23 Fun.id in
  let seq = List.map (fun i -> (i, i * i)) keys in
  List.iter
    (fun jobs ->
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "jobs %d = sequential" jobs)
        seq
        (Exec.sweep ~jobs (fun i -> i * i) keys))
    [ 1; 2; 4; 64 ]

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
  let par = Exec.sweep ~jobs:2 cell grid in
  let seq = List.map (fun k -> (k, cell k)) grid in
  check_bool "parallel = sequential" true (Stdlib.compare par seq = 0)

(* ------------------------------------------------------------------ *)
(* Keys *)

let test_sweep_keyed_order () =
  let keys = List.init 9 (Printf.sprintf "k%d") in
  Alcotest.(check (list (pair string int)))
    "keys travel with results in key order"
    (List.mapi (fun i k -> (k, i)) keys)
    (Exec.sweep ~jobs:3 (fun k -> int_of_string (String.sub k 1 1)) keys)

let test_sweep_default_jobs_positive () =
  check_bool "default jobs >= 1" true (Exec.default_jobs () >= 1)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "exec"
    [
      ( "pool",
        [
          tc "map preserves order" `Quick test_map_preserves_order;
          tc "empty and small batches" `Quick test_map_empty_and_small;
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
