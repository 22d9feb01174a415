(* Determinism across worker counts: each command line below runs at
   --jobs 1, 2 and 4 at ci scale, each run writing into its own
   directory, and every file the jobs 2 and jobs 4 runs write must equal
   the jobs 1 run's byte for byte.  The dune rule that runs this test
   sets SOURCE_DATE_EPOCH, which pins JSON manifests and drops their
   host wall-clock block.

   - fig3: its CSV, metrics JSON and collapsed-stack cost profile.
   - fig3 under message loss plus a mid-run slave crash, degraded.*
     failover columns included.
   - Open-loop serving: the SLO report, queueing timestamps and
     quantiles included.
   - Timelines of a faulted serve run: CSV and JSON exports, windows cut
     in simulated time only.
   - The cache microscope on one fig3 cell at the 128 KB contention
     point.
   - The update ablation: Run_result columns plus dyn.* update
     accounting. *)

let repro = Filename.concat ".." (Filename.concat "bin" "repro.exe")

let serve =
  [ "serve"; "--arrival"; "poisson:2e5"; "--duration"; "2e6"; "--slo"; "1e6" ]

(* A command line, given the base name of its output files, and the
   suffixes of the files it writes. *)
let cases =
  [
    ( "fig3",
      (fun out ->
        [ "fig3"; "--csv"; out ^ ".csv"; "--observe";
          Printf.sprintf "metrics:out=%s.json+profile:out=%s.folded" out out ]),
      [ ".csv"; ".json"; ".folded" ] );
    ( "fig3 faulted",
      (fun out ->
        [ "fig3"; "--faults"; "drop:p=0.02+crash:node=3,at=1e6";
          "--csv"; out ^ ".csv" ]),
      [ ".csv" ] );
    ("serve", (fun out -> serve @ [ "--csv"; out ^ ".csv" ]), [ ".csv" ]);
    ( "serve timeline",
      (fun out ->
        serve
        @ [ "--methods"; "C-3"; "--faults"; "crash:node=3,at=1e6";
            "--observe"; "timeline:out=" ^ out ]),
      [ ".csv"; ".json" ] );
    ( "scope",
      (fun out ->
        [ "fig3"; "--batches"; "128"; "--methods"; "A,C-3";
          "--observe"; "scope:out=" ^ out ]),
      [ ".csv"; ".json" ] );
    ( "updates",
      (fun out ->
        [ "ablation"; "updates"; "--updates"; "0.1"; "--methods"; "C-3";
          "--batches"; "128"; "--csv"; out ^ ".csv" ]),
      [ ".csv" ] );
  ]

let read path = In_channel.with_open_bin path In_channel.input_all

(* Run the command at [jobs] workers in [dir]/jobs[jobs]; the base name
   of its outputs. *)
let run dir argv jobs =
  let sub = Filename.concat dir (Printf.sprintf "jobs%d" jobs) in
  Sys.mkdir sub 0o755;
  let out = Filename.concat sub "out" in
  let args = argv out @ [ "--scale"; "ci"; "--jobs"; string_of_int jobs ] in
  let status =
    Sys.command (Filename.quote_command repro args ~stdout:Filename.null)
  in
  Alcotest.(check int) (Printf.sprintf "jobs %d exit code" jobs) 0 status;
  out

let rec remove path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let test_case (name, argv, suffixes) =
  Alcotest.test_case name `Quick (fun () ->
      let dir = Filename.temp_dir "jobs" "" in
      Fun.protect ~finally:(fun () -> remove dir) @@ fun () ->
      let base = run dir argv 1 in
      List.iter
        (fun jobs ->
          let other = run dir argv jobs in
          List.iter
            (fun suffix ->
              Alcotest.(check bool)
                (Printf.sprintf "jobs 1 and %d %s identical" jobs suffix)
                true
                (read (base ^ suffix) = read (other ^ suffix)))
            suffixes)
        [ 2; 4 ])

let () = Alcotest.run "jobs" [ ("repro", List.map test_case cases) ]
