(* Tests for the log-structured dynamic index.  The central property:
   under an arbitrary interleaving of insert/delete/search ops,
   Index.Segments is answer-identical to the Ref_impl.Dyn oracle — for
   the timed search, the untimed search, the live count and the
   reconstructed live key set — across merge policies aggressive
   enough to exercise seals, tiered merges and major compactions. *)

open Simcore

let p3 = Cachesim.Mem_params.pentium3
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let fresh_machine () = Machine.create (Engine.create ()) ~name:"seg" p3

let make_keys n = Array.init n (fun i -> (i * 7) + 3)

let seg ?policy keys = Index.Segments.create (fresh_machine ()) ?policy keys

(* ------------------------------------------------------------------ *)
(* Hand-built units *)

let test_static_matches_ref () =
  (* Zero updates: Segments is exactly the base run. *)
  let keys = make_keys 500 in
  let t = seg keys in
  check_int "length" 500 (Index.Segments.length t);
  List.iter
    (fun q ->
      check_int
        (Printf.sprintf "rank %d" q)
        (Index.Ref_impl.rank keys q)
        (Index.Segments.search t q))
    [ 0; 2; 3; 4; 1000; (499 * 7) + 3; Index.Key.sentinel - 1 ]

let test_tombstone_over_base () =
  (* Deleting a base key drops it from every rank at and above it. *)
  let keys = make_keys 100 in
  let t = seg keys in
  let k = (50 * 7) + 3 in
  check_bool "delete applies" true (Index.Segments.delete t k);
  check_int "rank below unchanged" 50 (Index.Segments.search t (k - 1));
  check_int "rank at key drops" 50 (Index.Segments.search t k);
  check_int "rank above drops" 99 (Index.Segments.search t Index.Key.sentinel);
  check_int "length" 99 (Index.Segments.length t);
  (* Deleting again is a no-op; re-inserting restores the rank. *)
  check_bool "double delete rejected" false (Index.Segments.delete t k);
  check_bool "reinsert applies" true (Index.Segments.insert t k);
  check_int "rank restored" 51 (Index.Segments.search t k);
  check_bool "insert of live key rejected" false (Index.Segments.insert t k)

let test_merge_at_threshold () =
  (* seg_capacity=4, merge_threshold=2: every 8 effective updates the
     two tier-0 segments merge into a tier-1.  major_fraction is huge
     so compaction never interferes. *)
  let policy =
    { Index.Segments.seg_capacity = 4; merge_threshold = 2;
      major_fraction = 1e9 }
  in
  let t = seg ~policy (make_keys 50) in
  for i = 0 to 3 do
    ignore (Index.Segments.insert t (100_000 + i))
  done;
  let st = Index.Segments.stats t in
  check_int "one seal" 1 st.Index.Segments.seals;
  check_int "one segment" 1 (Index.Segments.segment_count t);
  check_int "no merge yet" 0 st.Index.Segments.merges;
  for i = 4 to 7 do
    ignore (Index.Segments.insert t (100_000 + i))
  done;
  check_int "two seals" 2 st.Index.Segments.seals;
  check_bool "merged" true (st.Index.Segments.merges >= 1);
  check_int "one merged segment" 1 (Index.Segments.segment_count t);
  check_int "delta holds all 8" 8 (Index.Segments.delta_entries t);
  check_int "rank sees all" 58 (Index.Segments.search t Index.Key.sentinel)

let test_empty_segment_elided () =
  (* An active log that cancels itself out seals into nothing. *)
  let policy =
    { Index.Segments.seg_capacity = 4; merge_threshold = 4;
      major_fraction = 1e9 }
  in
  let t = seg ~policy (make_keys 10) in
  ignore (Index.Segments.insert t 1000);
  ignore (Index.Segments.delete t 1000);
  ignore (Index.Segments.insert t 2000);
  ignore (Index.Segments.delete t 2000);
  let st = Index.Segments.stats t in
  check_int "sealed" 1 st.Index.Segments.seals;
  check_int "no segment materialized" 0 (Index.Segments.segment_count t);
  check_int "no delta entries" 0 (Index.Segments.delta_entries t);
  check_int "length unchanged" 10 (Index.Segments.length t);
  check_int "ranks unchanged" 10 (Index.Segments.search t Index.Key.sentinel)

let test_major_compaction () =
  (* Tiny base + eager major_fraction: deltas fold into the base. *)
  let policy =
    { Index.Segments.seg_capacity = 2; merge_threshold = 4;
      major_fraction = 0.1 }
  in
  let keys = make_keys 20 in
  let t = seg ~policy keys in
  ignore (Index.Segments.delete t 3);
  ignore (Index.Segments.insert t 1_000);
  ignore (Index.Segments.insert t 2_000);
  ignore (Index.Segments.insert t 3_000);
  let st = Index.Segments.stats t in
  check_bool "major ran" true (st.Index.Segments.majors >= 1);
  check_int "live" 22 (Index.Segments.length t);
  check_int "rank" 22 (Index.Segments.search t Index.Key.sentinel);
  check_int "rank below deleted" 0 (Index.Segments.search t 3);
  (* After the last major the base holds everything folded so far. *)
  check_bool "base absorbed delta" true (Index.Segments.base_length t > 20)

let test_empty_base () =
  let t = seg [||] in
  check_int "empty rank" 0 (Index.Segments.search t 12345);
  ignore (Index.Segments.insert t 7);
  check_int "rank after insert" 1 (Index.Segments.search t 12345);
  check_int "rank below" 0 (Index.Segments.search t 6);
  ignore (Index.Segments.delete t 7);
  check_int "empty again" 0 (Index.Segments.search t 12345)

let test_charges_time () =
  (* Updates and dynamic searches must cost simulated time. *)
  let m = fresh_machine () in
  let t = Index.Segments.create m (make_keys 200) in
  let before = Machine.busy_ns m in
  for i = 0 to 99 do
    ignore (Index.Segments.insert t (50_000 + i))
  done;
  let after_updates = Machine.busy_ns m in
  check_bool "updates charge time" true (after_updates > before);
  ignore (Index.Segments.search t 60_000);
  check_bool "search charges time" true (Machine.busy_ns m > after_updates);
  let u = Machine.busy_ns m in
  check_int "untimed search free" 0
    (ignore (Index.Segments.search_untimed t 60_000);
     compare (Machine.busy_ns m) u)

let test_policy_validation () =
  let rejects policy =
    match Index.Segments.create (fresh_machine ()) ~policy [| 1; 2 |] with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "accepted malformed policy"
  in
  rejects { Index.Segments.seg_capacity = 0; merge_threshold = 4;
            major_fraction = 0.5 };
  rejects { Index.Segments.seg_capacity = 4; merge_threshold = 1;
            major_fraction = 0.5 };
  rejects { Index.Segments.seg_capacity = 4; merge_threshold = 4;
            major_fraction = 0.0 }

(* ------------------------------------------------------------------ *)
(* QCheck: answer-identity with the Ref_impl.Dyn oracle under random
   interleavings, across policies that force every structural event. *)

let policies =
  [
    Index.Segments.default_policy;
    { Index.Segments.seg_capacity = 3; merge_threshold = 2;
      major_fraction = 0.15 };
    { Index.Segments.seg_capacity = 8; merge_threshold = 3;
      major_fraction = 1e9 };
  ]

let prop_oracle_identity =
  QCheck.Test.make ~name:"segments = Ref_impl.Dyn oracle under interleavings"
    ~count:60
    QCheck.(triple small_int (int_range 0 200) (int_range 0 2))
    (fun (sd, n_base, pi) ->
      let policy = List.nth policies pi in
      let g = Prng.Splitmix.create sd in
      let module IS = Set.Make (Int) in
      let rec draw s =
        if IS.cardinal s = n_base then s
        else draw (IS.add (Prng.Splitmix.int g 5_000) s)
      in
      let keys = Array.of_list (IS.elements (draw IS.empty)) in
      let t = seg ~policy keys in
      let oracle = Index.Ref_impl.Dyn.create keys in
      let ok = ref true in
      for _ = 1 to 300 do
        (* Narrow key range so inserts collide with deletes and base. *)
        let k = Prng.Splitmix.int g 6_000 in
        match Prng.Splitmix.int g 3 with
        | 0 ->
            ok :=
              !ok
              && Index.Segments.insert t k = Index.Ref_impl.Dyn.insert oracle k
        | 1 ->
            ok :=
              !ok
              && Index.Segments.delete t k = Index.Ref_impl.Dyn.delete oracle k
        | _ ->
            let expect = Index.Ref_impl.Dyn.rank oracle k in
            ok :=
              !ok
              && Index.Segments.search t k = expect
              && Index.Segments.search_untimed t k = expect
      done;
      ok :=
        !ok
        && Index.Segments.length t = Index.Ref_impl.Dyn.size oracle
        && Index.Segments.live_keys t
           = Index.Ref_impl.Dyn.to_sorted_array oracle;
      !ok)

(* ------------------------------------------------------------------ *)
(* Images: a Segments replica loaded from an image behaves exactly as a
   freshly built one, and each loaded copy moves on its own. *)

let scope_regions sc name =
  match
    List.find_opt
      (fun n -> Obs.Cachescope.node_name n = name)
      (Obs.Cachescope.nodes sc)
  with
  | Some n -> Obs.Cachescope.regions n
  | None -> Alcotest.failf "no scope node %s" name

let test_image () =
  let policy =
    { Index.Segments.seg_capacity = 4; merge_threshold = 2;
      major_fraction = 0.05 }
  in
  let keys = make_keys 300 in
  let build m = Index.Segments.create m ~policy keys in
  let sc = Obs.Cachescope.create () in
  Obs.Cachescope.with_recording sc (fun () ->
      let fm = Machine.create (Engine.create ()) ~name:"fresh" p3 in
      let fresh = build fm in
      let img, template = Machine.build_image p3 build in
      let load name =
        let m = Machine.create (Engine.create ()) ~name p3 in
        Machine.load_image m img;
        (m, Index.Segments.retarget template m)
      in
      let lm, loaded = load "loaded" in
      let n = Machine.words_allocated fm in
      check_int "brk" n (Machine.words_allocated lm);
      for a = 0 to n - 1 do
        if Machine.peek fm a <> Machine.peek lm a then
          Alcotest.failf "word %d differs" a
      done;
      check_bool "labelled regions" true
        (scope_regions sc "fresh" = scope_regions sc "loaded");
      let _, other = load "other" in
      (* The same stream on the fresh and the loaded replica: seals,
         merges and major compactions included. *)
      let g = Prng.Splitmix.create 9 in
      for _ = 1 to 200 do
        let k = Prng.Splitmix.int g 3000 in
        (match Prng.Splitmix.int g 3 with
        | 0 ->
            check_bool "insert" (Index.Segments.insert fresh k)
              (Index.Segments.insert loaded k)
        | 1 ->
            check_bool "delete" (Index.Segments.delete fresh k)
              (Index.Segments.delete loaded k)
        | _ -> ());
        check_int "search" (Index.Segments.search fresh k)
          (Index.Segments.search loaded k)
      done;
      let st = Index.Segments.stats loaded in
      check_bool "stats equal" true (Index.Segments.stats fresh = st);
      check_bool "majors ran" true (st.Index.Segments.majors > 0);
      Alcotest.(check (float 0.0))
        "same simulated cost" (Machine.busy_ns fm) (Machine.busy_ns lm);
      check_bool "live keys" true
        (Index.Segments.live_keys fresh = Index.Segments.live_keys loaded);
      (* The other copy still holds the image's index, with no stats. *)
      check_bool "other copy unchanged" true
        (Index.Segments.live_keys other = keys);
      check_int "other stats" 0 (Index.Segments.stats other).Index.Segments.inserts;
      let _, again = load "again" in
      check_bool "image unchanged" true (Index.Segments.live_keys again = keys);
      check_bool "empty machine refused" true
        (match Index.Segments.retarget template (fresh_machine ()) with
        | _ -> false
        | exception Invalid_argument _ -> true))

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "segments"
    [
      ( "units",
        [
          tc "static matches ref" `Quick test_static_matches_ref;
          tc "tombstone over base" `Quick test_tombstone_over_base;
          tc "merge at threshold" `Quick test_merge_at_threshold;
          tc "empty segment elided" `Quick test_empty_segment_elided;
          tc "major compaction" `Quick test_major_compaction;
          tc "empty base" `Quick test_empty_base;
          tc "charges time" `Quick test_charges_time;
          tc "policy validation" `Quick test_policy_validation;
          tc "image" `Quick test_image;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_oracle_identity ] );
    ]
