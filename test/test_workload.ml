(* Tests for workload generation and scenario presets. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let g () = Prng.Splitmix.create 77

let test_index_keys_sorted_unique () =
  let keys = Workload.Keygen.index_keys (g ()) ~n:10_000 in
  check_int "count" 10_000 (Array.length keys);
  Index.Key.check_sorted_unique keys (* raises if invalid *)

let test_index_keys_deterministic () =
  let a = Workload.Keygen.index_keys (g ()) ~n:1000 in
  let b = Workload.Keygen.index_keys (g ()) ~n:1000 in
  Alcotest.(check (array int)) "same seed, same keys" a b

let test_index_keys_seed_sensitive () =
  let a = Workload.Keygen.index_keys (Prng.Splitmix.create 1) ~n:1000 in
  let b = Workload.Keygen.index_keys (Prng.Splitmix.create 2) ~n:1000 in
  check_bool "different" true (a <> b)

let test_index_keys_bad_args () =
  check_bool "n=0 rejected" true
    (match Workload.Keygen.index_keys (g ()) ~n:0 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_uniform_queries_in_space () =
  let qs = Workload.Keygen.uniform_queries (g ()) ~n:10_000 in
  Array.iter (fun q -> check_bool "valid key" true (Index.Key.valid q)) qs

let test_uniform_queries_spread () =
  (* Queries should cover the key space: quartile counts within 10%. *)
  let qs = Workload.Keygen.uniform_queries (g ()) ~n:40_000 in
  let buckets = Array.make 4 0 in
  Array.iter
    (fun q ->
      let b = q / (Index.Key.sentinel / 4) in
      buckets.(min 3 b) <- buckets.(min 3 b) + 1)
    qs;
  Array.iter
    (fun c -> check_bool "quartile balance" true (abs (c - 10_000) < 1_000))
    buckets

let test_member_queries_are_members () =
  let keys = Workload.Keygen.index_keys (g ()) ~n:500 in
  let module IS = Set.Make (Int) in
  let set = IS.of_list (Array.to_list keys) in
  let qs = Workload.Keygen.member_queries (g ()) ~keys ~n:2000 in
  Array.iter (fun q -> check_bool "is an indexed key" true (IS.mem q set)) qs

let test_zipf_queries_skewed () =
  let keys = Workload.Keygen.index_keys (g ()) ~n:1000 in
  let qs = Workload.Keygen.zipf_queries (g ()) ~keys ~n:50_000 ~s:1.2 in
  (* The hottest key should appear far more often than 1/1000 of draws. *)
  let tbl = Hashtbl.create 1000 in
  Array.iter
    (fun q -> Hashtbl.replace tbl q (1 + Option.value ~default:0 (Hashtbl.find_opt tbl q)))
    qs;
  let hottest = Hashtbl.fold (fun _ c acc -> max c acc) tbl 0 in
  check_bool "head concentration" true (hottest > 2000)

let test_sorted_queries_sorted () =
  let qs = Workload.Keygen.sorted_queries (g ()) ~n:5000 in
  let ok = ref true in
  for i = 1 to Array.length qs - 1 do
    if qs.(i) < qs.(i - 1) then ok := false
  done;
  check_bool "ascending" true !ok;
  let expect = Workload.Keygen.uniform_queries (g ()) ~n:5000 in
  Array.sort compare expect;
  Alcotest.(check (array int)) "the uniform stream, sorted" expect qs

(* The reference [index_keys]: the first [n] distinct draws, deduplicated
   through a [Hashtbl] and sorted with polymorphic [compare]. *)
let reference_index_keys g ~n =
  let seen = Hashtbl.create (2 * n) in
  let out = Array.make n 0 in
  let filled = ref 0 in
  while !filled < n do
    let k = Prng.Splitmix.int g Index.Key.sentinel in
    if not (Hashtbl.mem seen k) then begin
      Hashtbl.add seen k ();
      out.(!filled) <- k;
      incr filled
    end
  done;
  Array.sort compare out;
  out

(* The paper's 327,680 keys from the key split [Runner.workload] draws
   them from. *)
let test_index_keys_paper_size () =
  List.iter
    (fun seed ->
      let keys_gen () = Prng.Splitmix.split (Prng.Splitmix.create seed) in
      Alcotest.(check (array int))
        (Printf.sprintf "seed %d" seed)
        (reference_index_keys (keys_gen ()) ~n:327_680)
        (Workload.Keygen.index_keys (keys_gen ()) ~n:327_680))
    [ 2005; 4242 ]

(* ------------------------------------------------------------------ *)
(* Scenario *)

let test_paper_scenario_matches_paper () =
  let sc = Workload.Scenario.paper in
  check_int "keys (Table 1)" 327_680 sc.Workload.Scenario.n_keys;
  check_int "queries 2^23" (1 lsl 23) sc.Workload.Scenario.n_queries;
  check_int "11 nodes" 11 sc.Workload.Scenario.n_nodes;
  Alcotest.(check string) "machine" "pentium3"
    sc.Workload.Scenario.params.Cachesim.Mem_params.name;
  Alcotest.(check string) "network" "myrinet"
    sc.Workload.Scenario.net.Netsim.Profile.name

let test_fig3_batches_are_paper_axis () =
  let b = Workload.Scenario.fig3_batches in
  check_int "10 points" 10 (List.length b);
  check_int "starts at 8 KB" (8 * 1024) (List.hd b);
  check_int "ends at 4 MB" (4 * 1024 * 1024) (List.nth b 9);
  (* powers of two *)
  List.iter (fun x -> check_bool "pow2" true (x land (x - 1) = 0)) b

let test_with_batch () =
  let sc = Workload.Scenario.with_batch Workload.Scenario.paper 4096 in
  check_int "batch replaced" 4096 sc.Workload.Scenario.batch_bytes;
  check_int "rest unchanged" 327_680 sc.Workload.Scenario.n_keys

let test_queries_per_batch () =
  let sc = Workload.Scenario.with_batch Workload.Scenario.paper (8 * 1024) in
  check_int "8KB = 2048 keys" 2048 (Workload.Scenario.queries_per_batch sc)

let test_scaled_differs_only_in_volume () =
  let p = Workload.Scenario.paper and s = Workload.Scenario.scaled in
  check_int "same keys" p.Workload.Scenario.n_keys s.Workload.Scenario.n_keys;
  check_int "same nodes" p.Workload.Scenario.n_nodes s.Workload.Scenario.n_nodes;
  check_bool "fewer queries" true
    (s.Workload.Scenario.n_queries < p.Workload.Scenario.n_queries)

let prop_index_keys_strictly_increasing =
  QCheck.Test.make ~name:"index_keys strictly increasing" ~count:50
    QCheck.(pair small_int (int_range 1 2000))
    (fun (seed, n) ->
      let keys = Workload.Keygen.index_keys (Prng.Splitmix.create seed) ~n in
      let ok = ref (Array.length keys = n) in
      for i = 1 to n - 1 do
        if keys.(i) <= keys.(i - 1) then ok := false
      done;
      !ok)

let prop_index_keys_match_reference =
  QCheck.Test.make ~name:"index_keys = Hashtbl + sort reference" ~count:100
    QCheck.(pair int (int_range 1 20_000))
    (fun (seed, n) ->
      Workload.Keygen.index_keys (Prng.Splitmix.create seed) ~n
      = reference_index_keys (Prng.Splitmix.create seed) ~n)

(* The dedup table's load peaks at 5/8 exactly when [n] is 5 * 2^k / 8;
   at, just below and just past those sizes the keys are still the first
   [n] distinct draws. *)
let test_index_keys_load_boundaries () =
  List.iter
    (fun k ->
      let at = 5 lsl k / 8 in
      List.iter
        (fun n ->
          if n >= 1 then
            Alcotest.(check (array int))
              (Printf.sprintf "n = %d" n)
              (reference_index_keys (g ()) ~n)
              (Workload.Keygen.index_keys (g ()) ~n))
        [ at - 1; at; at + 1 ])
    [ 1; 2; 3; 4; 5; 8; 11; 14 ]

(* The reference superposition: every client's stream tagged
   (time, client, sequence) and sorted. *)
let reference_merge streams =
  let tag c s = Array.mapi (fun i tm -> (tm, c, i)) s in
  let tagged = Array.concat (Array.to_list (Array.mapi tag streams)) in
  Array.sort
    (fun (tm, c, i) (tm', c', i') ->
      let o = Float.compare tm tm' in
      if o <> 0 then o
      else if c <> c' then Int.compare c c'
      else Int.compare i i')
    tagged;
  Array.map (fun (tm, _, _) -> tm) tagged

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

(* [generate] is the reference sort of its own client streams, bit for
   bit, for every process and 1-8 clients.  With [ties], the streams are
   rounded to a coarse grid first, so equal times across and within
   clients are common, and [merge] must still order them as the sort
   does (a [-0.0] can come first only from a lower client). *)
let prop_arrival_merge_matches_sort =
  let open QCheck.Gen in
  let process =
    oneof
      [
        map
          (fun rate -> Workload.Arrival.Poisson { rate })
          (float_range 1e5 5e6);
        map3
          (fun rate burst (on_ns, off_ns) ->
            Workload.Arrival.Mmpp { rate; burst; on_ns; off_ns })
          (float_range 1e5 5e6) (float_range 1.0 8.0)
          (pair (float_range 1e3 1e5) (float_range 1e3 1e5));
        map3
          (fun rate peak period_ns ->
            Workload.Arrival.Diurnal { rate; peak; period_ns })
          (float_range 1e5 2e6) (float_range 1.0 5.0) (float_range 1e4 1e6);
      ]
  in
  let case = quad process (int_range 1 8) nat bool in
  let print (p, clients, seed, ties) =
    Printf.sprintf "%s clients=%d seed=%d ties=%b"
      (Workload.Arrival.to_string { Workload.Arrival.process = p })
      clients seed ties
  in
  QCheck.Test.make ~name:"arrival merge = (time, client, seq) sort" ~count:200
    (QCheck.make ~print case) (fun (process, clients, seed, ties) ->
      let a = { Workload.Arrival.process } in
      let duration_ns = 1e6 in
      let streams = Workload.Arrival.streams a ~seed ~clients ~duration_ns in
      let ascending s =
        let ok = ref true in
        for i = 1 to Array.length s - 1 do
          if s.(i) < s.(i - 1) then ok := false
        done;
        !ok
      in
      Array.length streams = clients
      && Array.for_all ascending streams
      &&
      if ties then
        (* Equal times are told apart only by the sign of a zero: odd
           clients round their first grid cell to [-0.0]. *)
        let coarse =
          Array.mapi
            (fun c ->
              Array.map (fun tm ->
                  let r = Float.round (tm /. 5e3) *. 5e3 in
                  if r = 0.0 && c land 1 = 1 then -0.0 else r))
            streams
        in
        same_bits (Workload.Arrival.merge coarse) (reference_merge coarse)
      else
        same_bits
          (Workload.Arrival.generate a ~seed ~clients ~duration_ns)
          (reference_merge streams))

(* Any representable arrival spec survives a render/parse round-trip —
   the property golden serve CSVs and CLI flags depend on.  Floats are
   arbitrary positive finite values (the renderer falls back to %.17g
   when %g would lose bits); replay paths avoid only the grammar's
   separators (',' splits clauses, leading/trailing space is trimmed). *)
let prop_arrival_roundtrip =
  let pos_float =
    QCheck.Gen.(
      map
        (fun (f : float) ->
          let f = Float.abs f in
          if Float.is_finite f && f > 0.0 then f else 1.5)
        float)
  in
  let path_gen =
    QCheck.Gen.(
      let safe =
        oneofl
          [ 'a'; 'z'; 'M'; '0'; '9'; '_'; '-'; '.'; '/'; ':'; '='; '~' ]
      in
      map (fun s -> "t" ^ s) (string_size ~gen:safe (int_range 0 24)))
  in
  let gen =
    QCheck.Gen.(
      oneof
        [
          map
            (fun rate -> { Workload.Arrival.process = Poisson { rate } })
            pos_float;
          map3
            (fun rate burst (on_ns, off_ns) ->
              {
                Workload.Arrival.process =
                  Mmpp { rate; burst = 1.0 +. burst; on_ns; off_ns };
              })
            pos_float pos_float (pair pos_float pos_float);
          map3
            (fun rate peak period_ns ->
              { Workload.Arrival.process = Diurnal { rate; peak; period_ns } })
            pos_float pos_float pos_float;
          map
            (fun path -> { Workload.Arrival.process = Replay { path } })
            path_gen;
        ])
  in
  let arb =
    QCheck.make ~print:Workload.Arrival.to_string gen
  in
  QCheck.Test.make ~name:"arrival spec render/parse round-trip" ~count:500 arb
    (fun a ->
      match Workload.Arrival.parse (Workload.Arrival.to_string a) with
      | Ok b -> b = a
      | Error e ->
          QCheck.Test.fail_reportf "%s did not parse back: %s"
            (Workload.Arrival.to_string a) e)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "workload"
    [
      ( "keygen",
        [
          tc "sorted unique" `Quick test_index_keys_sorted_unique;
          tc "deterministic" `Quick test_index_keys_deterministic;
          tc "seed sensitive" `Quick test_index_keys_seed_sensitive;
          tc "bad args" `Quick test_index_keys_bad_args;
          tc "uniform in space" `Quick test_uniform_queries_in_space;
          tc "uniform spread" `Quick test_uniform_queries_spread;
          tc "member queries" `Quick test_member_queries_are_members;
          tc "zipf skew" `Quick test_zipf_queries_skewed;
          tc "sorted queries" `Quick test_sorted_queries_sorted;
          tc "paper size = reference" `Quick test_index_keys_paper_size;
          tc "load boundaries = reference" `Quick
            test_index_keys_load_boundaries;
        ] );
      ( "scenario",
        [
          tc "paper config" `Quick test_paper_scenario_matches_paper;
          tc "fig3 batches" `Quick test_fig3_batches_are_paper_axis;
          tc "with_batch" `Quick test_with_batch;
          tc "queries per batch" `Quick test_queries_per_batch;
          tc "scaled preset" `Quick test_scaled_differs_only_in_volume;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_index_keys_strictly_increasing;
            prop_index_keys_match_reference;
            prop_arrival_roundtrip;
            prop_arrival_merge_matches_sort;
          ] );
    ]
