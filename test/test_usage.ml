(* Usage errors: each command line below must exit with its code (124 is
   cmdliner's usage-error code) before printing anything on stdout.

   - A flag the subcommand does not read: each subcommand accepts only
     its own flags, so cmdliner rejects any other as unknown.
   - An observation clause a subcommand cannot honour: a timeline
     outside `serve`.
   - An out-of-range flag value, each on a subcommand that reads the
     flag: non-positive rates, durations and batch sizes; fewer than one
     query, key, node, master or client; a Method C run with no node
     left for a slave, or with fewer keys than slaves; a fault on a node
     outside the cluster.  (The rows that pass --slo or --batch to
     fig3, which reads neither, check the unknown-flag refusal.)
   - A grid that cannot run: a cell that cannot be laid out (a
     hierarchy ablation with too few nodes for its router trees), an
     update grid with a C-family cell the dynamic or serve guards refuse
     (two masters, or a drop fault), and a fault node that is a slave in
     one cell and a master in another.

   Then a property: no command line drawn from the flags every
   subcommand once shared makes `repro` crash. *)

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
    ([ "table3"; "--methods"; "A" ], 124);
    ([ "table2"; "--keys"; "5" ], 124);
    ([ "fig3"; "--batch"; "64" ], 124);
    ([ "fig3"; "--slo"; "5" ], 124);
    ([ "serve"; "--batches"; "64" ], 124);
    ([ "ablation"; "skew"; "--csv"; "x" ], 124);
    ([ "all"; "--observe"; "none" ], 124);
    ([ "timeline"; "--methods"; "A,B" ], 124);
    ([ "table1"; "--nodes"; "1"; "--methods"; "A" ], 124);
    ([ "table3"; "--nodes"; "1"; "--methods"; "A" ], 124);
    ([ "fig4"; "--nodes"; "1"; "--methods"; "A" ], 124);
    ([ "table1"; "--nodes"; "1" ], 124);
    ([ "serve"; "--slo"; "0" ], 124);
    ([ "table3"; "--batch=-4" ], 124);
    ([ "fig3"; "--methods"; "A"; "--batches"; "64,0" ], 124);
    ([ "ablation"; "masters"; "--faults"; crash ], 124);
  ]

(* Every command line runs at ci scale. *)
let at_ci args = args @ [ "--scale"; "ci" ]

(* Runs [args]: the exit code and stdout. *)
let run args =
  let out = Filename.temp_file "usage" ".out" in
  let status =
    Sys.command
      (Filename.quote_command repro args ~stdout:out ~stderr:Filename.null)
  in
  let printed = In_channel.with_open_bin out In_channel.input_all in
  Sys.remove out;
  (status, printed)

let test_case (args, code) =
  let args = at_ci args in
  Alcotest.test_case (String.concat " " args) `Quick (fun () ->
      let status, printed = run args in
      Alcotest.(check int) "exit code" code status;
      Alcotest.(check string) "stdout" "" printed)

(* Every subcommand and ablation study, and the flags the one shared
   term used to hand all of them, each with small values both valid and
   invalid (none writes a file). *)
let commands =
  List.map
    (fun c -> [ c ])
    [ "table1"; "table2"; "table3"; "fig3"; "fig4"; "timeline"; "serve"; "all" ]
  @ List.map
      (fun s -> [ "ablation"; s ])
      [ "batch-overhead"; "network"; "skew"; "masters"; "linesize";
        "slave-structure"; "hierarchy"; "structures"; "updates" ]

let vocabulary =
  [
    ("queries", [ "0"; "1"; "64"; "4096" ]);
    ("keys", [ "0"; "1"; "3"; "64"; "4096" ]);
    ("nodes", [ "0"; "1"; "2"; "3"; "6" ]);
    ("masters", [ "0"; "1"; "2"; "4" ]);
    ("batch", [ "-4"; "0"; "1"; "8"; "128" ]);
    ("batches", [ "0"; "8"; "64,128"; "x" ]);
    ("network", [ "myrinet"; "gige"; "fast-ethernet"; "token-ring" ]);
    ("seed", [ "-3"; "0"; "7" ]);
    ("jobs", [ "0"; "1"; "2" ]);
    ("methods", [ "A"; "C-3"; "A,B"; "B,C-1,C-3"; "D" ]);
    ("observe", [ "none"; "profile"; "scope"; "timeline"; "metrics"; "x" ]);
    ( "faults",
      [ "none"; "crash:node=1,at=1e5"; "crash:node=4,at=1e5"; "drop:p=0.02";
        "slow:node=9,factor=2"; "x" ] );
    ("arrival", [ "poisson:2e5"; "mmpp:rate=1e5,burst=2,on=1e5,off=1e5"; "x" ]);
    ("slo", [ "-1"; "0"; "2e5"; "inf" ]);
    ("duration", [ "0"; "1e5"; "1e6" ]);
    ("offered-load", [ "0"; "1e5"; "4e5" ]);
    ("clients", [ "0"; "1"; "3" ]);
    ("updates", [ "none"; "0.1"; "x" ]);
  ]

let command_line =
  QCheck.make
    ~print:(String.concat " ")
    QCheck.Gen.(
      map at_ci
      @@ map2 ( @ ) (oneofl commands)
        (map List.concat
           (flatten_l
              (List.map
                 (fun (flag, values) ->
                   map
                     (function Some v -> [ "--" ^ flag; v ] | None -> [])
                     (opt ~ratio:0.1 (oneofl values)))
                 vocabulary))))

(* 60 cases, each flag drawn with probability 0.1: about a quarter
   parse and run.  Measured at 14.5 s on a 2-vCPU host. *)
let prop_no_crash =
  QCheck.Test.make ~name:"no command line crashes" ~count:60 command_line
    (fun args ->
      let status, printed = run args in
      List.mem status [ 0; 3; 124 ] && (status <> 124 || printed = ""))

let () =
  Alcotest.run "usage"
    [
      ( "repro",
        List.map test_case cases
        @ [ QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 35 |])
              prop_no_crash ] );
    ]
