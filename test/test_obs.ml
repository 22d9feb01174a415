(* Tests for the observability subsystem: metrics registry semantics,
   snapshot algebra, JSON round-trips, trace_event export and
   cross-worker-count determinism of harvested run telemetry. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))
let check_string = Alcotest.(check string)

(* Run a driver's grid; every spec here lays out. *)
let grid driver spec =
  fst (Result.get_ok (Dispatch.Experiment.run_grid spec (driver spec)))

(* ------------------------------------------------------------------ *)
(* Hist *)

let test_hist_buckets () =
  (* v lands in bucket e with v in (2^(e-1), 2^e]. *)
  check_int "1.0" 0 (Obs.Hist.bucket_of 1.0);
  check_int "1.5" 1 (Obs.Hist.bucket_of 1.5);
  check_int "2.0" 1 (Obs.Hist.bucket_of 2.0);
  check_int "2.1" 2 (Obs.Hist.bucket_of 2.1);
  check_int "1024" 10 (Obs.Hist.bucket_of 1024.0);
  check_int "0.5" (-1) (Obs.Hist.bucket_of 0.5);
  check_int "zero" min_int (Obs.Hist.bucket_of 0.0);
  check_int "negative" min_int (Obs.Hist.bucket_of (-3.0));
  check_float "upper 3" 8.0 (Obs.Hist.bucket_upper 3);
  check_float "upper nonpositive" 0.0 (Obs.Hist.bucket_upper min_int)

let test_hist_stats () =
  let h = Obs.Hist.create () in
  List.iter (Obs.Hist.observe h) [ 1.0; 3.0; 5.0; 7.0 ];
  Obs.Hist.observe_n h 100.0 2;
  let s = Obs.Hist.snapshot h in
  check_int "count" 6 s.Obs.Hist.count;
  check_float "sum" 216.0 s.Obs.Hist.sum;
  check_float "min" 1.0 s.Obs.Hist.min_v;
  check_float "max" 100.0 s.Obs.Hist.max_v;
  (* Mean comes from the exact sum, not bucket midpoints. *)
  check_float "mean" 36.0 (Obs.Hist.mean s);
  (* p100 is clamped to the exact max. *)
  check_float "q1.0" 100.0 (Obs.Hist.quantile s 1.0);
  (* The median falls in the bucket of 5.0: (4, 8]. *)
  check_float "q0.5" 8.0 (Obs.Hist.quantile s 0.5)

let test_hist_algebra () =
  let mk vs =
    let h = Obs.Hist.create () in
    List.iter (Obs.Hist.observe h) vs;
    Obs.Hist.snapshot h
  in
  let a = mk [ 1.0; 2.0; 9.0 ] and b = mk [ 3.0; 4.0 ] in
  let m = Obs.Hist.merge a b in
  check_int "merge count" 5 m.Obs.Hist.count;
  check_float "merge sum" 19.0 m.Obs.Hist.sum;
  check_float "merge min" 1.0 m.Obs.Hist.min_v;
  check_float "merge max" 9.0 m.Obs.Hist.max_v;
  check_bool "merge buckets" true
    (m.Obs.Hist.buckets = (mk [ 1.0; 2.0; 9.0; 3.0; 4.0 ]).Obs.Hist.buckets);
  (* add_snapshot merges into a live accumulator. *)
  let h = Obs.Hist.create () in
  Obs.Hist.observe h 5.0;
  Obs.Hist.add_snapshot h b;
  let s = Obs.Hist.snapshot h in
  check_int "add_snapshot count" 3 s.Obs.Hist.count;
  check_float "add_snapshot sum" 12.0 s.Obs.Hist.sum

let test_hist_quantiles () =
  let h = Obs.Hist.create () in
  (* 100 samples 1..100; power-of-two buckets, so each quantile reports
     the upper bound of the bucket holding that rank. *)
  for i = 1 to 100 do
    Obs.Hist.observe h (float_of_int i)
  done;
  let s = Obs.Hist.snapshot h in
  let p50, p95, p99 = Obs.Hist.quantiles s in
  check_float "p50 matches quantile" (Obs.Hist.quantile s 0.5) p50;
  check_float "p95 matches quantile" (Obs.Hist.quantile s 0.95) p95;
  check_float "p99 matches quantile" (Obs.Hist.quantile s 0.99) p99;
  (* Rank 50 lands in (32, 64]; ranks 95 and 99 land in (64, 128],
     whose upper bound clamps to the exact observed max. *)
  check_float "p50 bucket" 64.0 p50;
  check_float "p95 bucket" 100.0 p95;
  check_float "p99 bucket" 100.0 p99;
  check_bool "monotone" true (p50 <= p95 && p95 <= p99);
  (* The trio is what the text rendering prints. *)
  let reg = Obs.Metrics.create () in
  for i = 1 to 100 do
    Obs.Metrics.observe reg "lat" (float_of_int i)
  done;
  let out = Obs.Metrics.Snapshot.render (Obs.Metrics.snapshot reg) in
  let contains sub =
    let n = String.length sub and m = String.length out in
    let rec go i = i + n <= m && (String.sub out i n = sub || go (i + 1)) in
    go 0
  in
  check_bool "render shows p50" true (contains "p50<=64");
  check_bool "render shows p95" true (contains "p95<=100");
  check_bool "render shows p99" true (contains "p99<=100")

let test_hist_empty_quantiles () =
  (* Regression: an empty histogram's quantiles are pinned to 0, and the
     _opt variant distinguishes "no data" from "all-zero data". *)
  let s = Obs.Hist.empty in
  check_float "quantile 0" 0.0 (Obs.Hist.quantile s 0.0);
  check_float "quantile 0.5" 0.0 (Obs.Hist.quantile s 0.5);
  check_float "quantile 1" 0.0 (Obs.Hist.quantile s 1.0);
  let p50, p95, p99 = Obs.Hist.quantiles s in
  check_float "p50" 0.0 p50;
  check_float "p95" 0.0 p95;
  check_float "p99" 0.0 p99;
  check_bool "quantiles_opt empty" true (Obs.Hist.quantiles_opt s = None);
  (* Same for a live histogram that never saw an observation. *)
  let s = Obs.Hist.snapshot (Obs.Hist.create ()) in
  check_bool "fresh histogram" true
    (Obs.Hist.quantiles s = (0.0, 0.0, 0.0)
    && Obs.Hist.quantiles_opt s = None);
  (* Non-empty agrees with the plain trio, even when all-zero. *)
  let h = Obs.Hist.create () in
  Obs.Hist.observe h 0.0;
  let s = Obs.Hist.snapshot h in
  check_bool "quantiles_opt non-empty" true
    (Obs.Hist.quantiles_opt s = Some (Obs.Hist.quantiles s))

(* merge_into is the in-place form of merge: folding [src] into a live
   [dst] equals merging their snapshots, and leaves [src] untouched. *)
let prop_hist_merge_into =
  let open QCheck in
  let vals = small_list (map float_of_int (int_range 0 4096)) in
  QCheck.Test.make ~count:200 ~name:"hist: merge_into = merge on snapshots"
    (pair vals vals)
    (fun (va, vb) ->
      let fill vs =
        let h = Obs.Hist.create () in
        List.iter (Obs.Hist.observe h) vs;
        h
      in
      let dst = fill va and src = fill vb in
      let before_dst = Obs.Hist.snapshot dst
      and before_src = Obs.Hist.snapshot src in
      Obs.Hist.merge_into dst src;
      Obs.Hist.snapshot dst = Obs.Hist.merge before_dst before_src
      && Obs.Hist.snapshot src = before_src)

(* ------------------------------------------------------------------ *)
(* Reuse: exact LRU stack distances *)

(* Naive reference: an MRU-first list of distinct keys; the stack
   distance of a re-reference is its 0-based position. *)
let naive_note stack key =
  let rec strip i acc = function
    | [] -> (None, List.rev acc)
    | k :: rest when k = key -> (Some i, List.rev_append acc rest)
    | k :: rest -> strip (i + 1) (k :: acc) rest
  in
  let d, rest = strip 0 [] !stack in
  stack := key :: rest;
  d

let prop_reuse_oracle =
  let open QCheck in
  QCheck.Test.make ~count:200
    ~name:"reuse: tracker matches naive LRU stack oracle"
    (list_of_size Gen.(int_range 0 300) (int_range 0 24))
    (fun keys ->
      let t = Obs.Reuse.create () in
      let stack = ref [] in
      List.for_all
        (fun k ->
          let got = Obs.Reuse.note t k in
          match naive_note stack k with
          | None -> got = Obs.Reuse.Cold
          | Some d -> got = Obs.Reuse.Dist d)
        keys
      && Obs.Reuse.distinct t = List.length !stack
      && Obs.Reuse.tracked t = List.length !stack)

let test_reuse_compaction () =
  (* Cross the Fenwick compaction threshold (1024 stamps) several times
     and check the tracker still agrees with the naive oracle on every
     reference. *)
  let t = Obs.Reuse.create () in
  let stack = ref [] in
  let g = ref 12345 in
  for i = 0 to 4999 do
    g := ((!g * 1103515245) + 12345) land 0x3FFFFFFF;
    let k = if i < 700 then i else !g mod 700 in
    let got = Obs.Reuse.note t k in
    let want =
      match naive_note stack k with
      | None -> Obs.Reuse.Cold
      | Some d -> Obs.Reuse.Dist d
    in
    if got <> want then Alcotest.failf "reference %d to key %d diverges" i k
  done;
  check_int "distinct keys" 700 (Obs.Reuse.distinct t);
  check_int "all keys stay live unbounded" 700 (Obs.Reuse.tracked t)

let test_reuse_bounded_far () =
  let t = Obs.Reuse.create ~bound:4 () in
  (* Distances under the bound stay exact... *)
  for k = 0 to 9 do
    ignore (Obs.Reuse.note t k)
  done;
  check_bool "immediate re-reference" true
    (Obs.Reuse.note t 9 = Obs.Reuse.Dist 0);
  check_bool "distance 3" true (Obs.Reuse.note t 6 = Obs.Reuse.Dist 3);
  (* ...and a key whose stamp was retired by a bounded compaction reads
     back as Far rather than a fabricated distance. *)
  for k = 10 to 9999 do
    ignore (Obs.Reuse.note t k)
  done;
  check_bool "retired key is Far" true (Obs.Reuse.note t 0 = Obs.Reuse.Far);
  check_int "seen keys still counted" 10000 (Obs.Reuse.distinct t);
  check_bool "live set is bounded" true (Obs.Reuse.tracked t < 10000)

(* ------------------------------------------------------------------ *)
(* Tail inspector edge cases *)

let test_tail_k0_disabled () =
  let t = Obs.Tail.create ~k:0 in
  check_bool "nothing qualifies" true (not (Obs.Tail.qualifies t 1e18));
  Obs.Tail.note t ~id:0 ~ns:5.0 ~batch:1 ~breakdown:[];
  check_bool "note is a no-op" true (Obs.Tail.worst t = []);
  check_string "render empty" "" (Obs.Tail.render t)

let test_tail_k_exceeds_observations () =
  let t = Obs.Tail.create ~k:100 in
  List.iteri
    (fun i ns -> Obs.Tail.note t ~id:i ~ns ~batch:1 ~breakdown:[])
    [ 3.0; 9.0; 1.0 ];
  let ws = Obs.Tail.worst t in
  check_int "keeps every observation" 3 (List.length ws);
  check_bool "slowest first" true
    (List.map (fun e -> e.Obs.Tail.ns) ws = [ 9.0; 3.0; 1.0 ]);
  (* Ties break towards the earlier query id, deterministically. *)
  let t = Obs.Tail.create ~k:2 in
  List.iter
    (fun id -> Obs.Tail.note t ~id ~ns:7.0 ~batch:1 ~breakdown:[])
    [ 5; 1; 9 ];
  check_bool "tie-break by id" true
    (List.map (fun e -> e.Obs.Tail.id) (Obs.Tail.worst t) = [ 1; 5 ])

(* ------------------------------------------------------------------ *)
(* Metrics registry *)

let test_metrics_counters () =
  let reg = Obs.Metrics.create () in
  Obs.Metrics.incr reg "events" 3;
  Obs.Metrics.incr reg "events" 4;
  Obs.Metrics.incr reg ~labels:[ ("node", "a") ] "events" 1;
  Obs.Metrics.gauge reg "depth" 5.0;
  Obs.Metrics.gauge reg "depth" 2.0;
  Obs.Metrics.observe reg "lat" 10.0;
  Obs.Metrics.observe reg "lat" 20.0;
  let s = Obs.Metrics.snapshot reg in
  (match Obs.Metrics.Snapshot.find s "events" with
  | Some (Obs.Metrics.Snapshot.Counter v) -> check_float "counter sums" 7.0 v
  | _ -> Alcotest.fail "events not a counter");
  (match Obs.Metrics.Snapshot.find s ~labels:[ ("node", "a") ] "events" with
  | Some (Obs.Metrics.Snapshot.Counter v) ->
      check_float "labelled series separate" 1.0 v
  | _ -> Alcotest.fail "labelled events missing");
  (match Obs.Metrics.Snapshot.find s "depth" with
  | Some (Obs.Metrics.Snapshot.Gauge v) -> check_float "gauge last-wins" 2.0 v
  | _ -> Alcotest.fail "depth not a gauge");
  (match Obs.Metrics.Snapshot.find s "lat" with
  | Some (Obs.Metrics.Snapshot.Histogram h) ->
      check_int "hist count" 2 h.Obs.Hist.count;
      check_float "hist mean" 15.0 (Obs.Hist.mean h)
  | _ -> Alcotest.fail "lat not a histogram");
  check_bool "missing series" true
    (Obs.Metrics.Snapshot.find s "nope" = None)

let test_snapshot_sorted_and_unique () =
  let reg = Obs.Metrics.create () in
  Obs.Metrics.incr reg "z" 1;
  Obs.Metrics.incr reg "a" 1;
  Obs.Metrics.incr reg ~labels:[ ("n", "2") ] "a" 1;
  Obs.Metrics.incr reg ~labels:[ ("n", "1") ] "a" 1;
  let s = Obs.Metrics.snapshot reg in
  let keys =
    List.map
      (fun e ->
        ( e.Obs.Metrics.Snapshot.name,
          e.Obs.Metrics.Snapshot.labels ))
      s
  in
  check_bool "sorted by (name, labels)" true (keys = List.sort compare keys);
  check_int "no duplicate keys" (List.length keys)
    (List.length (List.sort_uniq compare keys))

(* ------------------------------------------------------------------ *)
(* JSON *)

let test_json_roundtrip () =
  let j =
    Obs.Json.Obj
      [
        ("int", Obs.Json.Int 42);
        ("neg", Obs.Json.Int (-7));
        ("float", Obs.Json.Float 1.5);
        ("tiny", Obs.Json.Float 1.25e-9);
        ("string", Obs.Json.String "a\"b\\c\nd\te\x01f");
        ("null", Obs.Json.Null);
        ("true", Obs.Json.Bool true);
        ("list", Obs.Json.List [ Obs.Json.Int 1; Obs.Json.String "x" ]);
        ("nested", Obs.Json.Obj [ ("k", Obs.Json.List []) ]);
      ]
  in
  let s = Obs.Json.to_string j in
  check_bool "pretty round-trip" true (Obs.Json.of_string_exn s = j);
  let s' = Obs.Json.to_string ~pretty:false j in
  check_bool "compact round-trip" true (Obs.Json.of_string_exn s' = j)

let test_json_errors () =
  let bad = [ ""; "{"; "[1,]"; "{\"a\":}"; "nul"; "\"unterminated"; "1 2" ] in
  List.iter
    (fun s ->
      match Obs.Json.of_string s with
      | Ok _ -> Alcotest.failf "accepted malformed %S" s
      | Error _ -> ())
    bad

let test_metrics_json_roundtrip () =
  let reg = Obs.Metrics.create () in
  Obs.Metrics.incr reg "c" 41;
  Obs.Metrics.incr_f reg ~labels:[ ("node", "n0"); ("level", "L1") ] "c" 0.5;
  Obs.Metrics.gauge reg "g" 2.75;
  Obs.Metrics.observe reg "h" 3.0;
  Obs.Metrics.observe reg "h" 300.0;
  let s = Obs.Metrics.snapshot reg in
  match Obs.Metrics.Snapshot.of_json (Obs.Metrics.Snapshot.to_json s) with
  | Error e -> Alcotest.failf "of_json failed: %s" e
  | Ok s' -> check_bool "snapshot JSON round-trip" true (s = s')

(* Random nested documents: whatever the printer emits, the parser must
   read back structurally equal — in both pretty and compact form. *)
let json_gen : Obs.Json.t QCheck.Gen.t =
  let open QCheck.Gen in
  let finite_float =
    map (fun f -> if Float.is_finite f then f else 0.0) float
  in
  let scalar =
    oneof
      [
        return Obs.Json.Null;
        map (fun b -> Obs.Json.Bool b) bool;
        map (fun i -> Obs.Json.Int i) int;
        map (fun f -> Obs.Json.Float f) finite_float;
        map (fun s -> Obs.Json.String s) string_printable;
      ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 0 then scalar
         else
           frequency
             [
               (3, scalar);
               ( 1,
                 map
                   (fun l -> Obs.Json.List l)
                   (list_size (int_bound 4) (self (n / 2))) );
               ( 1,
                 map
                   (fun kvs -> Obs.Json.Obj kvs)
                   (list_size (int_bound 4)
                      (pair string_printable (self (n / 2)))) );
             ])

let prop_json_roundtrip =
  QCheck.Test.make ~name:"printer/parser round-trip on random docs"
    ~count:300
    (QCheck.make ~print:(fun j -> Obs.Json.to_string j) json_gen)
    (fun j ->
      Obs.Json.of_string_exn (Obs.Json.to_string j) = j
      && Obs.Json.of_string_exn (Obs.Json.to_string ~pretty:false j) = j)

let test_json_nonfinite_rejected () =
  let rejects f =
    try
      ignore (Obs.Json.float_to_string f);
      false
    with Invalid_argument _ -> true
  in
  check_bool "nan rejected" true (rejects Float.nan);
  check_bool "+inf rejected" true (rejects Float.infinity);
  check_bool "-inf rejected" true (rejects Float.neg_infinity);
  check_bool "finite accepted" true (not (rejects 1.5));
  (* The document printer refuses too, anywhere in the tree. *)
  check_bool "to_string rejects embedded nan" true
    (try
       ignore
         (Obs.Json.to_string
            (Obs.Json.Obj
               [ ("ok", Obs.Json.Int 1); ("bad", Obs.Json.Float Float.nan) ]));
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Manifest *)

let test_manifest () =
  Unix.putenv "SOURCE_DATE_EPOCH" "123";
  Fun.protect
    ~finally:(fun () -> Unix.putenv "SOURCE_DATE_EPOCH" "")
    (fun () ->
      check_bool "reproducible" true (Obs.Manifest.reproducible ());
      check_float "timestamp from env" 123.0 (Obs.Manifest.timestamp ());
      let m =
        Obs.Manifest.create ~generator:"test"
          ~host:[ ("volatile", Obs.Json.Int 9) ]
          [ ("seed", Obs.Json.Int 42) ]
      in
      let j = Obs.Manifest.to_json m in
      (match Obs.Json.member "schema_version" j with
      | Some (Obs.Json.Int v) -> check_int "schema version" 1 v
      | _ -> Alcotest.fail "schema_version missing");
      (match Obs.Json.member "seed" j with
      | Some (Obs.Json.Int 42) -> ()
      | _ -> Alcotest.fail "caller field missing");
      check_bool "git present" true (Obs.Json.member "git" j <> None);
      (* Host block (wall times etc.) is suppressed in reproducible mode. *)
      check_bool "host suppressed" true (Obs.Json.member "host" j = None))

(* ------------------------------------------------------------------ *)
(* Trace: gantt regression + trace_event export *)

let test_gantt_zero_duration_span () =
  let tr = Simcore.Trace.create () in
  Simcore.Trace.add tr ~lane:"cpu" ~label:"tick" ~t0:5.0 ~t1:5.0;
  let g = Simcore.Trace.render_gantt ~width:20 tr in
  check_bool "zero-duration span paints a cell" true
    (String.contains g '#');
  (* And alongside a long span it still shows on its own lane. *)
  let tr = Simcore.Trace.create () in
  Simcore.Trace.add tr ~lane:"a" ~label:"busy" ~t0:0.0 ~t1:100.0;
  Simcore.Trace.add tr ~lane:"b" ~label:"blip" ~t0:50.0 ~t1:50.0;
  let g = Simcore.Trace.render_gantt ~width:20 tr in
  let lines = String.split_on_char '\n' g in
  let row_of lane =
    match
      List.find_opt
        (fun l ->
          String.length l > String.length lane
          && String.sub l 0 (String.length lane) = lane)
        lines
    with
    | Some l -> l
    | None -> Alcotest.failf "no gantt row for lane %s" lane
  in
  check_bool "blip lane visible" true (String.contains (row_of "b") '#')

let test_gantt_lane_order_and_busy () =
  let tr = Simcore.Trace.create () in
  Simcore.Trace.add tr ~lane:"second" ~label:"x" ~t0:0.0 ~t1:4.0;
  Simcore.Trace.add tr ~lane:"first" ~label:"y" ~t0:4.0 ~t1:8.0;
  Simcore.Trace.add tr ~lane:"second" ~label:"z" ~t0:8.0 ~t1:12.0;
  Simcore.Trace.add_instant tr ~lane:"ghost" ~label:"no row" ~t:1.0;
  check_bool "lanes in first-appearance order" true
    (Simcore.Trace.lanes tr = [ "second"; "first"; "ghost" ]);
  check_float "total busy sums spans" 8.0
    (Simcore.Trace.total_busy tr ~lane:"second");
  let g = Simcore.Trace.render_gantt tr in
  (* Span-less lanes don't get chart rows. *)
  check_bool "instant-only lane has no row" true
    (not
       (List.exists
          (fun l -> String.length l >= 5 && String.sub l 0 5 = "ghost")
          (String.split_on_char '\n' g)))

let test_trace_event_roundtrip () =
  let tr = Simcore.Trace.create () in
  Simcore.Trace.add tr ~lane:"master" ~label:"dispatch" ~t0:1000.0 ~t1:3000.0;
  Simcore.Trace.add tr ~lane:"slave0" ~label:"lookup" ~t0:2000.0 ~t1:2500.0;
  Simcore.Trace.add_instant tr ~lane:"net" ~label:"send 0->1" ~t:1500.0;
  Simcore.Trace.add_counter tr ~lane:"net" ~name:"in_flight" ~t:1500.0
    ~value:1.0;
  let j =
    Simcore.Trace.to_trace_event_json ~pid:0 ~process_name:"run0" tr
  in
  let parsed = Obs.Json.of_string_exn (Obs.Json.to_string j) in
  let events =
    Obs.Json.to_list_exn (Option.get (Obs.Json.member "traceEvents" parsed))
  in
  let ph_of e = Obs.Json.to_string_exn (Option.get (Obs.Json.member "ph" e)) in
  (* tid -> lane mapping from the thread_name metadata events. *)
  let tid_lane = Hashtbl.create 8 in
  List.iter
    (fun e ->
      if ph_of e = "M"
         && Obs.Json.member "name" e = Some (Obs.Json.String "thread_name")
      then
        Hashtbl.replace tid_lane
          (Obs.Json.to_int_exn (Option.get (Obs.Json.member "tid" e)))
          (Obs.Json.to_string_exn
             (Option.get
                (Obs.Json.member "name"
                   (Option.get (Obs.Json.member "args" e))))))
    events;
  let spans_back =
    List.filter_map
      (fun e ->
        if ph_of e <> "X" then None
        else
          let f k = Obs.Json.to_float_exn (Option.get (Obs.Json.member k e)) in
          let ts = f "ts" and dur = f "dur" in
          Some
            {
              Simcore.Trace.lane =
                Hashtbl.find tid_lane
                  (Obs.Json.to_int_exn (Option.get (Obs.Json.member "tid" e)));
              label =
                Obs.Json.to_string_exn
                  (Option.get (Obs.Json.member "name" e));
              (* ts/dur are microseconds; simulated time is ns. *)
              t0 = ts *. 1e3;
              t1 = (ts +. dur) *. 1e3;
            })
      events
  in
  check_bool "spans survive the export round-trip" true
    (spans_back = Simcore.Trace.spans tr);
  check_int "one instant" 1
    (List.length (List.filter (fun e -> ph_of e = "i") events));
  check_int "one counter sample" 1
    (List.length (List.filter (fun e -> ph_of e = "C") events));
  (* Combined export: one process per run, in order. *)
  let tr2 = Simcore.Trace.create () in
  Simcore.Trace.add tr2 ~lane:"x" ~label:"y" ~t0:0.0 ~t1:1.0;
  let combined =
    Simcore.Trace.combined_trace_event_json [ ("r0", tr); ("r1", tr2) ]
  in
  let evs =
    Obs.Json.to_list_exn (Option.get (Obs.Json.member "traceEvents" combined))
  in
  let pids =
    List.sort_uniq compare
      (List.map
         (fun e -> Obs.Json.to_int_exn (Option.get (Obs.Json.member "pid" e)))
         evs)
  in
  check_bool "two processes" true (pids = [ 0; 1 ])

(* ------------------------------------------------------------------ *)
(* End-to-end: harvested run telemetry *)

let small_scenario = Workload.Scenario.with_queries 8192 Workload.Scenario.ci

let test_run_metrics_deterministic () =
  let sc = small_scenario in
  let keys, queries = Dispatch.Runner.workload sc in
  let go () = Dispatch.Runner.run sc ~method_id:Dispatch.Methods.C3 ~keys ~queries in
  let r1 = go () and r2 = go () in
  check_bool "identical runs yield identical snapshots" true
    (r1.Dispatch.Run_result.metrics = r2.Dispatch.Run_result.metrics);
  (* And across worker counts via the sweep executor. *)
  let spec =
    Dispatch.Experiment.Spec.default
    |> Dispatch.Experiment.Spec.with_scenario sc
    |> Dispatch.Experiment.Spec.with_batches [ 8 * 1024 ]
    |> Dispatch.Experiment.Spec.with_methods [ Dispatch.Methods.B; Dispatch.Methods.C3 ]
  in
  let snaps_at jobs =
    grid Dispatch.Experiment.fig3
      (Dispatch.Experiment.Spec.with_jobs jobs spec)
    |> List.concat_map (fun row ->
           List.map
             (fun (r : Dispatch.Run_result.t) -> r.Dispatch.Run_result.metrics)
             row.Dispatch.Experiment.results)
  in
  check_bool "snapshots identical at --jobs 1 vs 2" true
    (snaps_at 1 = snaps_at 2)

let test_run_metrics_contents () =
  let sc = small_scenario in
  let keys, queries = Dispatch.Runner.workload sc in
  let r = Dispatch.Runner.run sc ~method_id:Dispatch.Methods.C3 ~keys ~queries in
  let s = r.Dispatch.Run_result.metrics in
  let counter name =
    match Obs.Metrics.Snapshot.find s name with
    | Some (Obs.Metrics.Snapshot.Counter v) -> v
    | _ -> Alcotest.failf "counter %s missing" name
  in
  check_float "net messages match result" (float_of_int r.Dispatch.Run_result.messages)
    (counter "net_messages_sent");
  check_float "net bytes match result" (float_of_int r.Dispatch.Run_result.bytes_sent)
    (counter "net_bytes_sent");
  check_float "no validation errors" 0.0 (counter "validation_errors");
  check_bool "engine events counted" true (counter "engine_events_executed" > 0.0);
  (* Per-node cache series exist for master and a slave. *)
  check_bool "master L2 misses present" true
    (Obs.Metrics.Snapshot.find s
       ~labels:[ ("level", "L2"); ("node", "master0") ]
       "cache_misses"
    <> None);
  check_bool "slave mem accesses present" true
    (Obs.Metrics.Snapshot.find s ~labels:[ ("node", "slave0") ] "mem_accesses"
    <> None);
  (* The response histogram is the same data as the headline mean. *)
  match Obs.Metrics.Snapshot.find s "response_ns" with
  | Some (Obs.Metrics.Snapshot.Histogram h) ->
      check_int "histogram covers every query" r.Dispatch.Run_result.n_queries
        h.Obs.Hist.count;
      Alcotest.(check (float 1e-6))
        "histogram mean = reported mean" r.Dispatch.Run_result.mean_response_ns
        (Obs.Hist.mean h)
  | _ -> Alcotest.fail "response_ns histogram missing"

let test_traced_run () =
  let sc = small_scenario in
  let spec =
    Dispatch.Experiment.Spec.default
    |> Dispatch.Experiment.Spec.with_scenario sc
    |> Dispatch.Experiment.Spec.with_batches [ 8 * 1024 ]
    |> Dispatch.Experiment.Spec.with_methods [ Dispatch.Methods.C3 ]
    |> Dispatch.Experiment.Spec.with_observe
         { Dispatch.Observe.none with trace = Some "/dev/null" }
  in
  let rows = grid Dispatch.Experiment.fig3 spec in
  let r =
    match rows with
    | [ { Dispatch.Experiment.results = [ r ]; _ } ] -> r
    | _ -> Alcotest.fail "expected one run"
  in
  match r.Dispatch.Run_result.trace with
  | None -> Alcotest.fail "trace not recorded despite a trace clause"
  | Some tr ->
      check_bool "machine busy spans recorded" true
        (Simcore.Trace.spans tr <> []);
      check_bool "network send instants recorded" true
        (List.exists
           (function Simcore.Trace.Instant _ -> true | _ -> false)
           (Simcore.Trace.events tr))

let test_cache_scope_deterministic () =
  (* The cache microscope rides inside each run, so its readings — 3C
     classification, reuse profiles, residency samples, set pressure —
     must be byte-identical however the sweep is parallelised. *)
  let sc = small_scenario in
  let spec =
    Dispatch.Experiment.Spec.default
    |> Dispatch.Experiment.Spec.with_scenario sc
    |> Dispatch.Experiment.Spec.with_batches [ 8 * 1024 ]
    |> Dispatch.Experiment.Spec.with_methods
         [ Dispatch.Methods.A; Dispatch.Methods.C3 ]
    |> Dispatch.Experiment.Spec.with_observe
         { Dispatch.Observe.none with scope = Some None }
  in
  let scoped_at jobs =
    grid Dispatch.Experiment.fig3 (Dispatch.Experiment.Spec.with_jobs jobs spec)
    |> List.concat_map (fun row ->
           List.mapi
             (fun i (r : Dispatch.Run_result.t) ->
               match r.Dispatch.Run_result.scope with
               | Some s -> (Printf.sprintf "run%d" i, s)
               | None -> Alcotest.fail "scope missing despite a scope clause")
             row.Dispatch.Experiment.results)
  in
  let csv jobs = Dispatch.Scope_report.csv (scoped_at jobs) in
  let c1 = csv 1 in
  check_bool "scope CSV identical at --jobs 1 vs 2" true (c1 = csv 2);
  check_bool "scope CSV identical at --jobs 1 vs 4" true (c1 = csv 4);
  let contains sub =
    let n = String.length sub and m = String.length c1 in
    let rec go i = i + n <= m && (String.sub c1 i n = sub || go (i + 1)) in
    go 0
  in
  check_bool "3C rows present" true (contains ",3c,");
  check_bool "reuse rows present" true (contains ",reuse,");
  check_bool "residency rows present" true (contains ",residency,");
  check_bool "set-pressure rows present" true (contains ",setpressure,");
  check_bool "partition region attributed" true (contains ",partition,");
  check_bool "render is non-empty" true
    (Dispatch.Scope_report.render (scoped_at 1) <> "")

(* ------------------------------------------------------------------ *)
(* Series: windowed timelines *)

let test_series_accounting () =
  let b = Obs.Series.builder ~window_ns:100.0 ~slo_ns:50.0 () in
  Obs.Series.note_arrival b ~at:10.0;
  Obs.Series.note_arrival b ~at:20.0;
  Obs.Series.note_arrival b ~at:150.0;
  (* Arrived in window 0, delivered in window 1, over the SLO. *)
  Obs.Series.note_delivery b ~arrived:10.0 ~finished:110.0;
  (* Same-window delivery, within the SLO. *)
  Obs.Series.note_delivery b ~arrived:20.0 ~finished:60.0;
  Obs.Series.note_lost b ~at:250.0;
  Obs.Series.note_event b ~at:250.0 ~label:"crash:node=3";
  Obs.Series.note_event b ~at:5.0 ~label:"slow:node=1";
  let t = Obs.Series.finish b in
  check_int "three windows" 3 (Array.length t.Obs.Series.windows);
  let w0 = t.Obs.Series.windows.(0)
  and w1 = t.Obs.Series.windows.(1)
  and w2 = t.Obs.Series.windows.(2) in
  check_int "w0 offered" 2 w0.Obs.Series.offered;
  check_int "w0 completed" 1 w0.Obs.Series.completed;
  check_int "w0 violations" 0 w0.Obs.Series.violations;
  check_int "w1 offered" 1 w1.Obs.Series.offered;
  check_int "w1 completed (pinned by delivery time)" 1 w1.Obs.Series.completed;
  check_int "w1 violations (100ns > 50ns slo)" 1 w1.Obs.Series.violations;
  check_int "w2 lost" 1 w2.Obs.Series.lost;
  check_int "w2 violations include lost" 1 w2.Obs.Series.violations;
  (* Queue depth is cumulative in-system at each boundary. *)
  check_int "depth after w0" 1 w0.Obs.Series.queue_depth;
  check_int "depth after w1" 1 w1.Obs.Series.queue_depth;
  check_int "depth after w2 (lost leaves queue)" 0 w2.Obs.Series.queue_depth;
  check_float "offered qps" (2.0 /. (100.0 /. 1e9))
    (Obs.Series.offered_qps t w0);
  check_float "w1 violation rate" 1.0 (Obs.Series.violation_rate w1);
  check_float "w1 burn rate (default budget 0.01)" 100.0
    (Obs.Series.burn_rate t w1);
  (* Events come back sorted by time, independent of noting order. *)
  (match t.Obs.Series.events with
  | [ e1; e2 ] ->
      check_string "first event" "slow:node=1" e1.Obs.Series.label;
      check_string "second event" "crash:node=3" e2.Obs.Series.label
  | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs))

let test_series_busy_spans () =
  let b = Obs.Series.builder ~window_ns:100.0 ~slo_ns:50.0 () in
  (* A span crossing two boundaries splits exactly at them. *)
  Obs.Series.note_busy b ~lane:"master" ~t0:50.0 ~t1:250.0;
  Obs.Series.note_busy b ~lane:"node1" ~t0:120.0 ~t1:140.0;
  let t = Obs.Series.finish b in
  check_bool "lanes sorted" true
    (Obs.Series.lanes t = [ "master"; "node1" ]);
  let busy i lane =
    List.assoc lane t.Obs.Series.windows.(i).Obs.Series.busy
  in
  check_float "master w0" 50.0 (busy 0 "master");
  check_float "master w1" 100.0 (busy 1 "master");
  check_float "master w2" 50.0 (busy 2 "master");
  check_float "node1 w1" 20.0 (busy 1 "node1");
  check_float "node1 w0 present at zero" 0.0 (busy 0 "node1")

let test_series_knee () =
  (* Windows 0-1: keeping up; windows 2-3: arrivals outpace a plateaued
     completion rate and the backlog grows. *)
  let arrive b w n =
    for i = 0 to n - 1 do
      Obs.Series.note_arrival b
        ~at:((float_of_int w *. 100.0) +. float_of_int i)
    done
  in
  let deliver b w n =
    for i = 0 to n - 1 do
      let at = (float_of_int w *. 100.0) +. float_of_int i in
      Obs.Series.note_delivery b ~arrived:at ~finished:(at +. 1.0)
    done
  in
  let b = Obs.Series.builder ~window_ns:100.0 ~slo_ns:1e9 () in
  arrive b 0 10;
  deliver b 0 10;
  arrive b 1 10;
  deliver b 1 10;
  arrive b 2 40;
  deliver b 2 10;
  arrive b 3 40;
  deliver b 3 10;
  let t = Obs.Series.finish b in
  check_bool "knee at first saturated window" true
    (Obs.Series.knee t = Some 2);
  let b2 = Obs.Series.builder ~window_ns:100.0 ~slo_ns:1e9 () in
  arrive b2 0 10;
  deliver b2 0 10;
  check_bool "no knee when keeping up" true
    (Obs.Series.knee (Obs.Series.finish b2) = None)

let test_series_rebin_unit () =
  let b = Obs.Series.builder ~window_ns:64.0 ~slo_ns:32.0 () in
  for i = 0 to 19 do
    let at = float_of_int (i * 40) in
    Obs.Series.note_arrival b ~at;
    Obs.Series.note_delivery b ~arrived:at ~finished:(at +. float_of_int i)
  done;
  let fine = Obs.Series.finish b in
  let coarse = Obs.Series.rebin fine ~factor:4 in
  check_int "window count halves correctly"
    ((Array.length fine.Obs.Series.windows + 3) / 4)
    (Array.length coarse.Obs.Series.windows);
  let sum f t =
    Array.fold_left (fun a w -> a + f w) 0 t.Obs.Series.windows
  in
  check_int "offered preserved"
    (sum (fun w -> w.Obs.Series.offered) fine)
    (sum (fun w -> w.Obs.Series.offered) coarse);
  check_int "violations preserved"
    (sum (fun w -> w.Obs.Series.violations) fine)
    (sum (fun w -> w.Obs.Series.violations) coarse);
  check_bool "factor 1 is identity" true (Obs.Series.rebin fine ~factor:1 == fine)

(* Rebin exactness: recording at width 2^k * w equals rebinning a
   width-w recording by 2^k, bit-for-bit, on integer-nanosecond inputs
   (the simulation's native grid) with power-of-two widths. *)
let prop_series_rebin_exact =
  let open QCheck in
  let gen =
    Gen.(
      let* wpow = int_range 4 10 in
      let* kpow = int_range 1 3 in
      let* evs =
        list_size (int_range 0 60)
          (let* kind = int_range 0 5 in
           let* a = int_range 0 16384 in
           let* d = int_range 0 4096 in
           return (kind, a, d))
      in
      return (wpow, kpow, evs))
  in
  let print (wpow, kpow, evs) =
    Printf.sprintf "w=2^%d k=2^%d evs=[%s]" wpow kpow
      (String.concat ";"
         (List.map (fun (k, a, d) -> Printf.sprintf "(%d,%d,%d)" k a d) evs))
  in
  QCheck.Test.make ~count:200
    ~name:"series: rebin by 2^k = direct coarse recording"
    (QCheck.make ~print gen)
    (fun (wpow, kpow, evs) ->
      let w = float_of_int (1 lsl wpow) in
      let k = 1 lsl kpow in
      let note b =
        List.iter
          (fun (kind, a, d) ->
            let at = float_of_int a and dur = float_of_int d in
            match kind with
            | 0 -> Obs.Series.note_arrival b ~at
            | 1 -> Obs.Series.note_delivery b ~arrived:at ~finished:(at +. dur)
            | 2 -> Obs.Series.note_lost b ~at
            | 3 ->
                Obs.Series.note_busy b
                  ~lane:(if d mod 2 = 0 then "master" else "node1")
                  ~t0:at ~t1:(at +. dur)
            | 4 -> Obs.Series.note_retry b ~at ()
            | _ ->
                Obs.Series.note_gauge b
                  ~lane:(if d mod 2 = 0 then "ga" else "gb")
                  ~at
                  (float_of_int d /. 4096.0))
          evs
      in
      let fine = Obs.Series.builder ~window_ns:w ~slo_ns:1024.0 () in
      let coarse =
        Obs.Series.builder ~window_ns:(w *. float_of_int k) ~slo_ns:1024.0 ()
      in
      note fine;
      note coarse;
      Obs.Series.rebin (Obs.Series.finish fine) ~factor:k
      = Obs.Series.finish coarse)

let test_series_json () =
  let b =
    Obs.Series.builder ~window_ns:100.0 ~slo_ns:50.0 ~horizon_ns:300.0 ()
  in
  Obs.Series.note_arrival b ~at:10.0;
  Obs.Series.note_delivery b ~arrived:10.0 ~finished:20.0;
  Obs.Series.note_event b ~at:150.0 ~label:"crash:node=3";
  let t = Obs.Series.finish b in
  check_int "horizon pre-extends to 3 windows" 3
    (Array.length t.Obs.Series.windows);
  let j = Obs.Series.to_json t in
  (* The export round-trips through the printer/parser unchanged. *)
  check_bool "json round-trip" true
    (Obs.Json.of_string_exn (Obs.Json.to_string j) = j);
  match Obs.Json.member "windows" j with
  | Some (Obs.Json.List ws) -> check_int "one object per window" 3 (List.length ws)
  | _ -> Alcotest.fail "windows list missing"

let test_series_gauges () =
  let b =
    Obs.Series.builder ~window_ns:100.0 ~slo_ns:50.0 ~horizon_ns:400.0 ()
  in
  Obs.Series.note_gauge b ~lane:"resid:n0" ~at:150.0 0.25;
  Obs.Series.note_gauge b ~lane:"resid:n0" ~at:180.0 0.75;
  Obs.Series.note_gauge b ~lane:"resid:n0" ~at:320.0 0.5;
  let t = Obs.Series.finish b in
  check_int "four windows" 4 (Array.length t.Obs.Series.windows);
  check_bool "gauge lanes" true (Obs.Series.gauge_lanes t = [ "resid:n0" ]);
  let g i =
    List.assoc "resid:n0" t.Obs.Series.windows.(i).Obs.Series.gauges
  in
  check_float "zero before first sample" 0.0 (g 0);
  check_float "last sample in window wins" 0.75 (g 1);
  check_float "carried forward" 0.75 (g 2);
  check_float "updated by a later sample" 0.5 (g 3);
  (* Rebin keeps the last sub-window: a boundary gauge, like
     queue_depth. *)
  let c = Obs.Series.rebin t ~factor:2 in
  let cg i =
    List.assoc "resid:n0" c.Obs.Series.windows.(i).Obs.Series.gauges
  in
  check_float "coarse w0 = fine w1" 0.75 (cg 0);
  check_float "coarse w1 = fine w3" 0.5 (cg 1);
  (* JSON carries gauge fields only when lanes exist, so gauge-free
     exports stay byte-compatible with the pre-gauge format. *)
  let gauges_in_first_window j =
    match Obs.Json.member "windows" j with
    | Some (Obs.Json.List (w :: _)) -> Obs.Json.member "gauges" w
    | _ -> Alcotest.fail "windows missing"
  in
  check_bool "gauges exported" true
    (gauges_in_first_window (Obs.Series.to_json t) <> None);
  check_bool "gauge_lanes exported" true
    (Obs.Json.member "gauge_lanes" (Obs.Series.to_json t) <> None);
  let plain =
    let b = Obs.Series.builder ~window_ns:100.0 ~slo_ns:50.0 () in
    Obs.Series.note_arrival b ~at:10.0;
    Obs.Series.finish b
  in
  check_bool "omitted when no gauges" true
    (gauges_in_first_window (Obs.Series.to_json plain) = None
    && Obs.Json.member "gauge_lanes" (Obs.Series.to_json plain) = None)

let test_render () =
  let reg = Obs.Metrics.create () in
  Obs.Metrics.incr reg ~labels:[ ("node", "n0") ] "hits" 12;
  Obs.Metrics.gauge reg "depth" 3.0;
  let out = Obs.Metrics.Snapshot.render (Obs.Metrics.snapshot reg) in
  let contains sub =
    let n = String.length sub and m = String.length out in
    let rec go i = i + n <= m && (String.sub out i n = sub || go (i + 1)) in
    go 0
  in
  check_bool "labelled counter line" true (contains "hits{node=n0}");
  check_bool "gauge line" true (contains "depth");
  check_string "one line per metric" "2"
    (string_of_int
       (List.length
          (List.filter (fun l -> l <> "") (String.split_on_char '\n' out))))

(* ------------------------------------------------------------------ *)
(* Observation sessions *)

module Observe = Dispatch.Observe

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let observe_gen =
  let open QCheck.Gen in
  let path =
    map
      (fun s -> s ^ ".out")
      (string_size ~gen:(char_range 'a' 'z') (int_range 1 6))
  in
  let window =
    oneof [ float_range 1e-3 1e12; map float_of_int (int_range 1 10_000_000) ]
  in
  let* metrics = opt path in
  let* trace = opt path in
  let* profile =
    opt
      (map2
         (fun folded tail_k -> { Observe.folded; tail_k })
         (opt path) (int_range 0 20))
  in
  let* timeline =
    opt
      (map2
         (fun base window_ns -> { Observe.base; window_ns })
         (opt path) (opt window))
  in
  let+ scope = opt (opt path) in
  { Observe.metrics; trace; profile; timeline; scope }

let prop_observe_roundtrip =
  QCheck.Test.make ~name:"observe: to_string/parse round-trip" ~count:500
    (QCheck.make ~print:Observe.to_string observe_gen)
    (fun t -> Observe.parse (Observe.to_string t) = Ok t)

let test_observe_grammar () =
  let ok s =
    match Observe.parse s with
    | Ok t -> t
    | Error e -> Alcotest.failf "parse %S failed: %s" s e
  in
  check_string "none" "none" (Observe.to_string (ok "none"));
  check_bool "empty is none" true (Observe.is_none (ok ""));
  check_string "canonical clause order"
    "metrics:out=m.json+profile:tail=4+timeline:out=tl,window=50000+scope"
    (Observe.to_string
       (ok "scope+timeline:window=5e4,out=tl+profile:tail=4+metrics:out=m.json"));
  check_string "default tail is omitted" "profile:out=p.folded"
    (Observe.to_string (ok "profile:out=p.folded,tail=8"));
  List.iter
    (fun s ->
      check_bool (Printf.sprintf "%S rejected" s) true
        (Result.is_error (Observe.parse s)))
    [
      "flamegraph";
      "profile+scope+profile";
      "profile:depth=3";
      "timeline:window=0";
      "timeline:window=-5";
      "timeline:window=inf";
      "profile:tail=-1";
      "metrics";
      "trace";
      "trace:out";
      "metrics:out=";
      "trace:out=";
      "profile:out=";
      "timeline:out= ";
      "scope:out=";
    ]

let test_observe_check () =
  let t =
    match Observe.parse "profile+timeline:out=tl" with
    | Ok t -> t
    | Error e -> Alcotest.fail e
  in
  check_bool "serve honours both" true
    (Observe.check ~honours:[ "profile"; "timeline" ] t = Ok ());
  (match Observe.check ~honours:[ "profile"; "scope" ] t with
  | Error msg ->
      check_bool "names the refused clause" true
        (contains msg "cannot honour timeline")
  | Ok () -> Alcotest.fail "timeline outside serve accepted");
  check_bool "a table command honours nothing" true
    (Result.is_error (Observe.check ~honours:[] t));
  check_bool "none passes anywhere" true
    (Observe.check ~honours:[] Observe.none = Ok ())

(* `repro timeline` records under the session like every other driver,
   so a scope clause reaches its run and its report. *)
let test_timeline_honours_scope () =
  let spec =
    Dispatch.Experiment.Spec.default
    |> Dispatch.Experiment.Spec.with_scenario small_scenario
    |> Dispatch.Experiment.Spec.with_observe
         { Observe.none with scope = Some None }
  in
  let gantt, r =
    Dispatch.Experiment.timeline_traced ~method_id:Dispatch.Methods.C3 spec
  in
  check_bool "gantt still drawn" true (String.contains gantt '#');
  check_bool "scope recorded" true (r.Dispatch.Run_result.scope <> None);
  check_bool "scope reported" true
    (contains
       (Observe.report spec.Dispatch.Experiment.Spec.observe [ ("run", r) ])
       "L2")

(* A multi-cell ablation honours every batch clause: each cell's run
   carries the clause's reading, under a label no other cell shares. *)
let test_ablation_honours_clauses () =
  let sc = Workload.Scenario.with_queries 4096 Workload.Scenario.ci in
  List.iter
    (fun (clause, recorded) ->
      let spec =
        Dispatch.Experiment.Spec.default
        |> Dispatch.Experiment.Spec.with_scenario sc
        |> Dispatch.Experiment.Spec.with_observe
             (Result.get_ok (Observe.parse clause))
      in
      let g = Dispatch.Ablation.skew spec in
      match Dispatch.Experiment.run_grid spec g with
      | Error msg -> Alcotest.fail msg
      | Ok (_, runs) ->
          check_int (clause ^ ": one reading per cell")
            (List.length g.Dispatch.Experiment.cells)
            (List.length (List.filter (fun (_, r) -> recorded r) runs));
          check_int (clause ^ ": distinct labels") (List.length runs)
            (List.length (List.sort_uniq compare (List.map fst runs))))
    [
      ( "metrics:out=unused.json",
        fun (r : Dispatch.Run_result.t) ->
          Obs.Metrics.Snapshot.find r.Dispatch.Run_result.metrics
            "validation_errors"
          <> None );
      ("trace:out=unused.json", fun r -> r.Dispatch.Run_result.trace <> None);
      ("profile", fun r -> r.Dispatch.Run_result.profile <> None);
      ("scope", fun r -> r.Dispatch.Run_result.scope <> None);
    ]

let () =
  Alcotest.run "obs"
    [
      ( "hist",
        [
          Alcotest.test_case "bucket boundaries" `Quick test_hist_buckets;
          Alcotest.test_case "exact stats" `Quick test_hist_stats;
          Alcotest.test_case "merge algebra" `Quick test_hist_algebra;
          Alcotest.test_case "p50/p95/p99 quantiles" `Quick
            test_hist_quantiles;
          Alcotest.test_case "empty histogram quantiles" `Quick
            test_hist_empty_quantiles;
          QCheck_alcotest.to_alcotest prop_hist_merge_into;
        ] );
      ( "reuse",
        [
          QCheck_alcotest.to_alcotest prop_reuse_oracle;
          Alcotest.test_case "survives compaction" `Quick
            test_reuse_compaction;
          Alcotest.test_case "bounded mode reports Far" `Quick
            test_reuse_bounded_far;
        ] );
      ( "tail",
        [
          Alcotest.test_case "k=0 disables" `Quick test_tail_k0_disabled;
          Alcotest.test_case "k exceeds observations" `Quick
            test_tail_k_exceeds_observations;
        ] );
      ( "series",
        [
          Alcotest.test_case "window accounting" `Quick test_series_accounting;
          Alcotest.test_case "busy-span distribution" `Quick
            test_series_busy_spans;
          Alcotest.test_case "knee detector" `Quick test_series_knee;
          Alcotest.test_case "rebin unit algebra" `Quick test_series_rebin_unit;
          QCheck_alcotest.to_alcotest prop_series_rebin_exact;
          Alcotest.test_case "json export" `Quick test_series_json;
          Alcotest.test_case "gauge lanes" `Quick test_series_gauges;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counter/gauge/hist semantics" `Quick
            test_metrics_counters;
          Alcotest.test_case "snapshot sorted+unique" `Quick
            test_snapshot_sorted_and_unique;
          Alcotest.test_case "render" `Quick test_render;
        ] );
      ( "json",
        [
          Alcotest.test_case "value round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "rejects malformed" `Quick test_json_errors;
          Alcotest.test_case "snapshot round-trip" `Quick
            test_metrics_json_roundtrip;
          QCheck_alcotest.to_alcotest prop_json_roundtrip;
          Alcotest.test_case "rejects non-finite floats" `Quick
            test_json_nonfinite_rejected;
          Alcotest.test_case "manifest" `Quick test_manifest;
        ] );
      ( "trace",
        [
          Alcotest.test_case "gantt zero-duration span" `Quick
            test_gantt_zero_duration_span;
          Alcotest.test_case "gantt lanes and busy" `Quick
            test_gantt_lane_order_and_busy;
          Alcotest.test_case "trace_event round-trip" `Quick
            test_trace_event_roundtrip;
        ] );
      ( "runs",
        [
          Alcotest.test_case "snapshots deterministic" `Quick
            test_run_metrics_deterministic;
          Alcotest.test_case "snapshot contents" `Quick
            test_run_metrics_contents;
          Alcotest.test_case "traced run" `Quick test_traced_run;
          Alcotest.test_case "cache scope deterministic" `Quick
            test_cache_scope_deterministic;
        ] );
      ( "observe",
        [
          QCheck_alcotest.to_alcotest prop_observe_roundtrip;
          Alcotest.test_case "grammar" `Quick test_observe_grammar;
          Alcotest.test_case "honoured clauses" `Quick test_observe_check;
          Alcotest.test_case "timeline honours scope" `Quick
            test_timeline_honours_scope;
          Alcotest.test_case "ablation honours every batch clause" `Quick
            test_ablation_honours_clauses;
        ] );
    ]
