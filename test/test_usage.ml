(* Usage errors: each command line below must exit with its code (124 is
   cmdliner's usage-error code) before printing anything on stdout.

   - An observation clause a subcommand cannot honour: a timeline
     outside `serve`, or any clause on a command that simulates no run.
   - --faults on a command that simulates no run.
   - An out-of-range flag value: non-positive rates, durations and batch
     sizes; fewer than one query, key, node, master or client; a
     Method C run with no node left for a slave, or with fewer keys than
     slaves; a fault on a node outside the cluster.
   - --updates anywhere but serve (methods A and B) and `ablation
     updates`.
   - A grid with a cell that cannot be laid out (a hierarchy ablation
     with too few nodes for its router trees), and an update grid with
     a C-family cell the dynamic guards refuse (two masters, or a drop
     fault). *)

let repro = Filename.concat ".." (Filename.concat "bin" "repro.exe")
let crash = "crash:node=1,at=1e5"

let cases =
  [
    ([ "fig3"; "--observe"; "timeline:out=tl" ], 124);
    ([ "ablation"; "structures"; "--observe"; "profile" ], 124);
    ([ "table1"; "--observe"; "scope" ], 124);
    ([ "table1"; "--faults"; crash ], 124);
    ([ "table2"; "--faults"; crash ], 124);
    ([ "fig4"; "--faults"; crash ], 124);
    ([ "ablation"; "structures"; "--faults"; crash ], 124);
    ([ "fig3"; "--slo"; "0" ], 124);
    ([ "serve"; "--duration"; "0" ], 124);
    ([ "serve"; "--offered-load"; "0" ], 124);
    ([ "fig3"; "--batch=-4" ], 124);
    ([ "fig3"; "--methods"; "C-3"; "--batches"; "64"; "--nodes"; "1" ], 124);
    ([ "fig3"; "--methods"; "A"; "--keys"; "0" ], 124);
    ([ "serve"; "--masters"; "0" ], 124);
    ([ "fig3"; "--methods"; "A"; "--nodes"; "0" ], 124);
    ([ "serve"; "--clients"; "0" ], 124);
    ([ "fig3"; "--methods"; "C-3"; "--batches"; "64"; "--keys"; "3" ], 124);
    ([ "fig3"; "--methods"; "C-3"; "--queries"; "0" ], 124);
    ( [ "fig3"; "--methods"; "C-3"; "--batches"; "64";
        "--faults"; "crash:node=99,at=1e5" ],
      124 );
    ( [ "fig3"; "--methods"; "C-3"; "--batches"; "64";
        "--faults"; "slow:node=42,factor=4" ],
      124 );
    ([ "serve"; "--methods"; "C-3"; "--updates"; "0.1" ], 124);
    ([ "serve"; "--methods"; "C-3"; "--masters"; "2"; "--updates"; "0.1" ], 124);
    ([ "fig3"; "--methods"; "C-3"; "--batches"; "64"; "--updates"; "0.1" ], 124);
    ([ "table1"; "--updates"; "0.1" ], 124);
    ([ "ablation"; "hierarchy"; "--nodes"; "3" ], 124);
    ( [ "ablation"; "updates"; "--methods"; "C-3"; "--masters"; "2";
        "--updates"; "0.1"; "--batches"; "128" ],
      124 );
    ( [ "ablation"; "updates"; "--methods"; "C-3"; "--faults"; "drop:p=0.1";
        "--updates"; "0.1"; "--batches"; "128" ],
      124 );
  ]

(* Every case runs at ci scale. *)
let test_case (args, code) =
  let args = args @ [ "--scale"; "ci" ] in
  Alcotest.test_case (String.concat " " args) `Quick (fun () ->
      let out = Filename.temp_file "usage" ".out" in
      let status =
        Sys.command
          (Filename.quote_command repro args ~stdout:out
             ~stderr:Filename.null)
      in
      let printed = In_channel.with_open_bin out In_channel.input_all in
      Sys.remove out;
      Alcotest.(check int) "exit code" code status;
      Alcotest.(check string) "stdout" "" printed)

let () = Alcotest.run "usage" [ ("repro", List.map test_case cases) ]
