(* Tests for the index structures: reference implementation, sorted array,
   n-ary tree, CSB+ tree and the buffered access technique.  The central
   property throughout: every structure computes exactly Ref_impl.rank. *)

open Simcore

let p3 = Cachesim.Mem_params.pentium3
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let fresh_machine () = Machine.create (Engine.create ()) ~name:"idx" p3

(* Strictly increasing keys with controlled gaps so queries can fall
   between, before and after the indexed keys. *)
let make_keys n = Array.init n (fun i -> (i * 7) + 3)

let interesting_queries n =
  (* Around every boundary of the key set, plus extremes. *)
  let qs = ref [ 0; 1; 2; 3; 4; Index.Key.sentinel - 1 ] in
  for i = 0 to min (n - 1) 200 do
    let k = (i * 7) + 3 in
    qs := (k - 1) :: k :: (k + 1) :: !qs
  done;
  let last = ((n - 1) * 7) + 3 in
  qs := (last + 1) :: (last + 1000) :: !qs;
  !qs

(* ------------------------------------------------------------------ *)
(* Ref_impl *)

let test_ref_rank_basics () =
  let keys = [| 10; 20; 30 |] in
  check_int "below all" 0 (Index.Ref_impl.rank keys 5);
  check_int "equal counts" 1 (Index.Ref_impl.rank keys 10);
  check_int "between" 1 (Index.Ref_impl.rank keys 15);
  check_int "last" 3 (Index.Ref_impl.rank keys 30);
  check_int "above all" 3 (Index.Ref_impl.rank keys 99);
  check_int "empty" 0 (Index.Ref_impl.rank [||] 5)

let test_ref_partition_of () =
  let delimiters = [| 100; 200; 300 |] in
  check_int "p0" 0 (Index.Ref_impl.partition_of ~delimiters 50);
  check_int "p1 at boundary" 1 (Index.Ref_impl.partition_of ~delimiters 100);
  check_int "p1" 1 (Index.Ref_impl.partition_of ~delimiters 150);
  check_int "p3" 3 (Index.Ref_impl.partition_of ~delimiters 999)

(* ------------------------------------------------------------------ *)
(* Ref_impl.Dyn against a Set.Make (Int) model *)

module IS = Set.Make (Int)

(* ------------------------------------------------------------------ *)
(* Ref_impl.ranks, the bulk oracle, against one Ref_impl.rank a query *)

let ranks_agree keys qs =
  Index.Ref_impl.ranks keys qs = Array.map (Index.Ref_impl.rank keys) qs

let test_ranks_edges () =
  let top = Index.Key.sentinel - 1 in
  let keys = [| 0; 5; 9; top |] in
  let ranks = Alcotest.(check (array int)) in
  ranks "no queries" [||] (Index.Ref_impl.ranks keys [||]);
  ranks "no keys" [| 0; 0 |] (Index.Ref_impl.ranks [||] [| 0; top |]);
  ranks "one key" [| 0; 1; 1; 0 |]
    (Index.Ref_impl.ranks [| 7 |] [| 6; 7; top; 0 |]);
  ranks "keys at 0 and sentinel - 1" [| 1; 1; 2; 3; 3; 4; 4 |]
    (Index.Ref_impl.ranks keys [| 0; 4; 5; 9; top - 1; top; top |]);
  ranks "duplicates in any order" [| 2; 0; 2; 2; 0 |]
    (Index.Ref_impl.ranks [| 3; 5 |] [| 5; 2; 5; 6; 2 |]);
  check_bool "below and above the keys" true
    (ranks_agree [| 100; 200 |] [| 99; 0; 201; top; 150 |]);
  (* Outside [0, 2^30) the whole array takes the per-query path. *)
  check_bool "out-of-range queries" true
    (ranks_agree keys [| -1; 5; Index.Key.sentinel; max_int; min_int |])

let prop_ranks_match_rank =
  QCheck.Test.make ~name:"Ref_impl.ranks = Array.map Ref_impl.rank"
    ~count:120
    QCheck.(quad int (int_range 0 400) (int_range 0 3000) bool)
    (fun (seed, n_keys, n_queries, wide) ->
      (* A wide span spreads queries over both radix digits; a narrow one
         puts many queries on, beside and between the keys. *)
      let g = Prng.Splitmix.create seed in
      let top = Index.Key.sentinel - 1 in
      let span = if wide then Index.Key.sentinel else (4 * n_keys) + 8 in
      let draw () = Prng.Splitmix.int g span in
      let ends =
        (if Prng.Splitmix.int g 2 = 0 then [ 0 ] else [])
        @ if Prng.Splitmix.int g 2 = 0 then [ top ] else []
      in
      let keys =
        IS.of_list (ends @ List.init n_keys (fun _ -> draw ()))
        |> IS.elements |> Array.of_list
      in
      let nk = Array.length keys in
      let qs = Array.make n_queries 0 in
      Array.iteri
        (fun i _ ->
          qs.(i) <-
            (match Prng.Splitmix.int g 6 with
            | 0 when nk > 0 -> keys.(Prng.Splitmix.int g nk)
            | 1 when nk > 0 ->
                let k = keys.(Prng.Splitmix.int g nk) in
                max 0 (min top (k + Prng.Splitmix.int g 3 - 1))
            | 2 -> if Prng.Splitmix.int g 2 = 0 then 0 else top
            | 3 when i > 0 -> qs.(Prng.Splitmix.int g i)
            | _ -> draw ()))
        qs;
      ranks_agree keys qs)

type dyn_op = Ins of int | Del of int | Rank of int

(* Replays [ops] on a [Dyn] built from [keys] and on a set model whose
   rank of [q] is the cardinality of [{k <= q}].  Every result must
   agree, and so must [rank] and [mem] at and beside each op's key; at
   the end, the rank at and just below every live key. *)
let dyn_agrees_with_model keys ops =
  let module D = Index.Ref_impl.Dyn in
  let d = D.create keys in
  let model = ref (IS.of_list (Array.to_list keys)) in
  let model_rank q =
    IS.fold (fun k n -> if k <= q then n + 1 else n) !model 0
  in
  let probe k =
    List.for_all
      (fun q -> D.rank d q = model_rank q && D.mem d q = IS.mem q !model)
      [ k - 1; k; k + 1 ]
  in
  List.for_all
    (fun op ->
      let agrees, k =
        match op with
        | Ins k ->
            let changed = not (IS.mem k !model) in
            model := IS.add k !model;
            (D.insert d k = changed, k)
        | Del k ->
            let changed = IS.mem k !model in
            model := IS.remove k !model;
            (D.delete d k = changed, k)
        | Rank q -> (true, q)
      in
      agrees && probe k)
    ops
  && D.size d = IS.cardinal !model
  && D.to_sorted_array d = Array.of_list (IS.elements !model)
  && List.for_all Fun.id
       (List.mapi
          (fun i k -> D.rank d k = i + 1 && D.rank d (k - 1) = i)
          (IS.elements !model))

let cap = Index.Ref_impl.Dyn.block_capacity

let test_dyn_dense_burst () =
  (* Keys 100,000 apart, then more than two blocks' worth of inserts
     into one gap: the block owning the gap fills, and so does one of
     the blocks the first re-cut spreads the burst over. *)
  let keys = Array.init (2 * cap) (fun i -> i * 100_000) in
  let burst =
    List.init ((2 * cap) + (cap / 2)) (fun i -> Ins (500_001 + i))
  in
  check_bool "ascending burst" true (dyn_agrees_with_model keys burst);
  check_bool "descending burst" true
    (dyn_agrees_with_model keys (List.rev burst))

let test_dyn_empty_block () =
  (* [cap] consecutive keys cover at least one whole block. *)
  let keys = make_keys (3 * cap) in
  let run = List.init cap (fun i -> keys.(cap + i)) in
  check_bool "delete a block, then refill it" true
    (dyn_agrees_with_model keys
       (List.map (fun k -> Del k) run
       @ List.map (fun k -> Rank (k + 1)) run
       @ List.map (fun k -> Ins k) (List.filteri (fun i _ -> i mod 3 = 0) run)))

let test_dyn_extreme_keys () =
  let top = Index.Key.sentinel - 1 in
  let ops =
    [ Rank 0; Del 0; Del top; Rank top; Ins top; Ins 0; Ins 0; Del top ]
  in
  check_bool "from both ends" true (dyn_agrees_with_model [| 0; top |] ops);
  check_bool "into an empty oracle" true (dyn_agrees_with_model [||] ops)

let test_dyn_create_empty () =
  (* Answers from one empty block, then past its capacity. *)
  check_bool "empty, then filled" true
    (dyn_agrees_with_model [||]
       (Rank 12345 :: Del 7 :: List.init (cap + 1) (fun i -> Ins (i * 3))))

let prop_dyn_matches_model =
  QCheck.Test.make ~name:"Ref_impl.Dyn = Set model under interleavings"
    ~count:40
    QCheck.(quad int (int_range 0 600) (int_range 0 1500) (int_range 1 6000))
    (fun (seed, n, n_ops, span) ->
      (* A narrow [span] packs inserts into few blocks and forces
         re-cuts; a wide one leaves most deletes no-ops. *)
      let g = Prng.Splitmix.create seed in
      let draw () = Prng.Splitmix.int g span in
      let keys =
        IS.of_list (List.init n (fun _ -> draw ()))
        |> IS.elements |> Array.of_list
      in
      let ops =
        List.init n_ops (fun _ ->
            match Prng.Splitmix.int g 10 with
            | 0 | 1 -> Rank (draw ())
            | 2 | 3 | 4 -> Del (draw ())
            | _ -> Ins (draw ()))
      in
      dyn_agrees_with_model keys ops)

(* ------------------------------------------------------------------ *)
(* Key *)

let test_key_validation () =
  Index.Key.check_sorted_unique [| 1; 2; 3 |];
  Alcotest.check_raises "descending"
    (Invalid_argument "Index: keys must be strictly increasing") (fun () ->
      Index.Key.check_sorted_unique [| 3; 2 |]);
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Index: keys must be strictly increasing") (fun () ->
      Index.Key.check_sorted_unique [| 2; 2 |]);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Index: key out of range") (fun () ->
      Index.Key.check_sorted_unique [| 1; Index.Key.sentinel |]);
  check_bool "sentinel invalid" false (Index.Key.valid Index.Key.sentinel);
  check_bool "max valid" true (Index.Key.valid (Index.Key.sentinel - 1))

(* ------------------------------------------------------------------ *)
(* Generic structure checks, shared by all three structures *)

let agreement_check name build_search n =
  let keys = make_keys n in
  let search = build_search keys in
  List.iter
    (fun q ->
      check_int
        (Printf.sprintf "%s n=%d q=%d" name n q)
        (Index.Ref_impl.rank keys q) (search q))
    (interesting_queries n)

let random_agreement_check name build_search ~seed ~n ~queries =
  let g = Prng.Splitmix.create seed in
  (* Random strictly-increasing keys via sorted distinct draws. *)
  let module IS = Set.Make (Int) in
  let rec draw s = if IS.cardinal s = n then s else draw (IS.add (Prng.Splitmix.int g (1 lsl 24)) s) in
  let keys = Array.of_list (IS.elements (draw IS.empty)) in
  let search = build_search keys in
  for _ = 1 to queries do
    let q = Prng.Splitmix.int g (1 lsl 24) in
    check_int (Printf.sprintf "%s random q=%d" name q)
      (Index.Ref_impl.rank keys q) (search q)
  done

(* ------------------------------------------------------------------ *)
(* Sorted_array *)

let sorted_array_search keys =
  let m = fresh_machine () in
  let sa = Index.Sorted_array.build m keys in
  Index.Sorted_array.search sa

let test_sorted_array_sizes () =
  List.iter (fun n -> agreement_check "sorted_array" sorted_array_search n)
    [ 1; 2; 3; 7; 8; 9; 100; 1000 ]

let test_sorted_array_random () =
  random_agreement_check "sorted_array" sorted_array_search ~seed:21 ~n:5000
    ~queries:2000

let test_sorted_array_untimed_agrees () =
  let m = fresh_machine () in
  let keys = make_keys 512 in
  let sa = Index.Sorted_array.build m keys in
  for q = 0 to 600 do
    check_int "timed = untimed" (Index.Sorted_array.search sa q)
      (Index.Sorted_array.search_untimed sa q)
  done;
  check_int "bytes" (512 * 4) (Index.Sorted_array.size_bytes sa)

let test_sorted_array_charges_time () =
  let m = fresh_machine () in
  let sa = Index.Sorted_array.build m (make_keys 4096) in
  check_bool "build untimed" true (Machine.busy_ns m = 0.0);
  ignore (Index.Sorted_array.search sa 12345);
  check_bool "search timed" true (Machine.busy_ns m > 0.0)

let test_sorted_array_rejects_unsorted () =
  let m = fresh_machine () in
  check_bool "unsorted rejected" true
    (match Index.Sorted_array.build m [| 5; 1 |] with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Nary_tree *)

let nary_search ?keys_per_node keys =
  let m = fresh_machine () in
  let t = Index.Nary_tree.build ?keys_per_node m keys in
  Index.Nary_tree.search t

let test_nary_sizes () =
  List.iter (fun n -> agreement_check "nary" (nary_search ?keys_per_node:None) n)
    [ 1; 2; 3; 4; 5; 16; 17; 63; 64; 65; 100; 1000; 4096 ]

let test_nary_random () =
  random_agreement_check "nary" (nary_search ?keys_per_node:None) ~seed:22
    ~n:10_000 ~queries:2000

let test_nary_other_fanouts () =
  List.iter
    (fun k ->
      List.iter
        (fun n -> agreement_check (Printf.sprintf "nary k=%d" k) (nary_search ~keys_per_node:k) n)
        [ 1; 5; 50; 500 ])
    [ 2; 3; 5; 8; 16 ]

let test_nary_layout () =
  let m = fresh_machine () in
  let t = Index.Nary_tree.build m (make_keys 1000) in
  (* k = 4 on pentium3; leaves = 250; levels = 1 + ceil(log4 250) = 5 *)
  check_int "keys per node" 4 (Index.Nary_tree.keys_per_node t);
  check_int "node words" 8 (Index.Nary_tree.node_words t);
  check_int "levels" 5 (Index.Nary_tree.levels t);
  check_int "leaf count" 250 (Index.Nary_tree.level_nodes t 5);
  check_int "root count" 1 (Index.Nary_tree.level_nodes t 1);
  let info = Index.Nary_tree.info t in
  check_int "info keys" 1000 info.Index.Layout_info.n_keys;
  check_int "info node bytes" 32 info.Index.Layout_info.node_bytes;
  (* Levels are contiguous and in order. *)
  check_bool "bases ascend" true
    (Index.Nary_tree.level_base t 1 < Index.Nary_tree.level_base t 2);
  check_int "subtree nodes h=2" 5 (Index.Nary_tree.subtree_nodes t ~levels:2)

let test_nary_single_node_tree () =
  let m = fresh_machine () in
  let t = Index.Nary_tree.build m [| 42 |] in
  check_int "one level" 1 (Index.Nary_tree.levels t);
  check_int "rank below" 0 (Index.Nary_tree.search t 41);
  check_int "rank at" 1 (Index.Nary_tree.search t 42)

let test_nary_descend_matches_search () =
  let m = fresh_machine () in
  let keys = make_keys 4096 in
  let t = Index.Nary_tree.build m keys in
  let levels = Index.Nary_tree.levels t in
  let g = Prng.Splitmix.create 5 in
  for _ = 1 to 200 do
    let q = Prng.Splitmix.int g 40_000 in
    let leaf =
      Index.Nary_tree.descend t ~addr:(Index.Nary_tree.root_addr t)
        ~steps:(levels - 1) q
    in
    check_int "descend+leaf_rank = search"
      (Index.Nary_tree.search t q)
      (Index.Nary_tree.leaf_rank t ~addr:leaf q)
  done

let test_nary_costs_more_when_tree_exceeds_cache () =
  (* A tree ~16x the L2 should pay far more per lookup than one that fits:
     this is the core premise of the paper. *)
  let lookup_cost n =
    let m = fresh_machine () in
    let keys = Array.init n (fun i -> i * 3) in
    let t = Index.Nary_tree.build m keys in
    let g = Prng.Splitmix.create 7 in
    (* warm up *)
    for _ = 1 to 2000 do
      ignore (Index.Nary_tree.search t (Prng.Splitmix.int g (3 * n)))
    done;
    let before = Machine.busy_ns m in
    let runs = 2000 in
    for _ = 1 to runs do
      ignore (Index.Nary_tree.search t (Prng.Splitmix.int g (3 * n)))
    done;
    (Machine.busy_ns m -. before) /. float_of_int runs
  in
  let small = lookup_cost 10_000 (* ~0.1 MB tree: cache resident *) in
  let big = lookup_cost 1_000_000 (* ~10 MB tree *) in
  check_bool
    (Printf.sprintf "out-of-cache lookup much dearer (%.0f vs %.0f ns)" big small)
    true
    (big > 2.0 *. small)

(* ------------------------------------------------------------------ *)
(* Csb_tree *)

let csb_search ?node_words keys =
  let m = fresh_machine () in
  let t = Index.Csb_tree.build ?node_words m keys in
  Index.Csb_tree.search t

let test_csb_sizes () =
  List.iter (fun n -> agreement_check "csb" (csb_search ?node_words:None) n)
    [ 1; 2; 6; 7; 8; 9; 49; 50; 63; 64; 65; 343; 1000; 4096 ]

let test_csb_random () =
  random_agreement_check "csb" (csb_search ?node_words:None) ~seed:23 ~n:10_000
    ~queries:2000

let test_csb_layout () =
  let m = fresh_machine () in
  let t = Index.Csb_tree.build m (make_keys 10_000) in
  check_int "separators" 7 (Index.Csb_tree.keys_per_node t);
  check_int "fanout" 8 (Index.Csb_tree.fanout t);
  check_int "node words" 8 (Index.Csb_tree.node_words t);
  (* leaves = ceil(10000/7) = 1429; levels = 1 + ceil(log8 1429) = 5? *)
  let info = Index.Csb_tree.info t in
  check_int "levels" (Index.Csb_tree.levels t) info.Index.Layout_info.levels;
  check_bool "wider fanout -> fewer levels than nary" true
    (Index.Csb_tree.levels t
    <= Index.Nary_tree.levels (Index.Nary_tree.build (fresh_machine ()) (make_keys 10_000)))

let test_csb_smaller_than_nary () =
  (* CSB+'s denser nodes should index the same keys in less space. *)
  let keys = make_keys 50_000 in
  let nary = Index.Nary_tree.build (fresh_machine ()) keys in
  let csb = Index.Csb_tree.build (fresh_machine ()) keys in
  let nb = (Index.Nary_tree.info nary).Index.Layout_info.total_bytes in
  let cb = (Index.Csb_tree.info csb).Index.Layout_info.total_bytes in
  check_bool (Printf.sprintf "csb %d < nary %d bytes" cb nb) true (cb < nb)

let test_csb_other_node_words () =
  List.iter
    (fun w ->
      List.iter
        (fun n ->
          agreement_check
            (Printf.sprintf "csb w=%d" w)
            (csb_search ~node_words:w) n)
        [ 1; 5; 50; 500 ])
    [ 3; 4; 8; 16; 32 ]

(* ------------------------------------------------------------------ *)
(* Buffered *)

let buffered_rig ?budget_bytes ?max_batch ~n () =
  let m = fresh_machine () in
  let keys = make_keys n in
  let tree = Index.Nary_tree.build m keys in
  let b = Index.Buffered.create ?budget_bytes ?max_batch tree in
  (m, keys, b)

let run_batch m b qs =
  let n = Array.length qs in
  let queries = Machine.alloc m n in
  let results = Machine.alloc m n in
  Machine.poke_array m queries qs;
  Index.Buffered.process_batch b ~queries ~results ~n;
  Array.init n (fun i -> Machine.peek m (results + i))

let test_buffered_correct_small () =
  let m, keys, b = buffered_rig ~n:1000 () in
  let qs = Array.init 500 (fun i -> i * 17 mod 8000) in
  let rs = run_batch m b qs in
  Array.iteri
    (fun i q -> check_int (Printf.sprintf "q=%d" q) (Index.Ref_impl.rank keys q) rs.(i))
    qs

let test_buffered_correct_multigroup () =
  (* Tiny budget forces several level groups. *)
  let m, keys, b = buffered_rig ~budget_bytes:128 ~n:5000 () in
  check_bool "multiple groups" true (Index.Buffered.groups b > 1);
  let g = Prng.Splitmix.create 3 in
  let qs = Array.init 2000 (fun _ -> Prng.Splitmix.int g 40_000) in
  let rs = run_batch m b qs in
  Array.iteri
    (fun i q -> check_int (Printf.sprintf "q=%d" q) (Index.Ref_impl.rank keys q) rs.(i))
    qs

let test_buffered_overflow_flush_correct () =
  (* Adversarial batch: every query targets the same subtree, overflowing
     its (deliberately small) buffer. *)
  let m, keys, b = buffered_rig ~budget_bytes:128 ~max_batch:64 ~n:5000 () in
  let qs = Array.make 600 5 (* all hit the leftmost subtree *) in
  let rs = run_batch m b qs in
  Array.iteri
    (fun i _ -> check_int "rank of 5" (Index.Ref_impl.rank keys 5) rs.(i))
    qs;
  check_bool "overflow flushes happened" true (Index.Buffered.overflow_flushes b > 0)

let test_buffered_aliased_queries_results () =
  (* The paper stores the result over the search key: queries = results. *)
  let m, keys, b = buffered_rig ~n:2000 () in
  let g = Prng.Splitmix.create 4 in
  let qs = Array.init 1000 (fun _ -> Prng.Splitmix.int g 20_000) in
  let region = Machine.alloc m (Array.length qs) in
  Machine.poke_array m region qs;
  Index.Buffered.process_batch b ~queries:region ~results:region
    ~n:(Array.length qs);
  Array.iteri
    (fun i q ->
      check_int (Printf.sprintf "aliased q=%d" q) (Index.Ref_impl.rank keys q)
        (Machine.peek m (region + i)))
    qs

let test_buffered_group_plan () =
  let m = fresh_machine () in
  let tree = Index.Nary_tree.build m (make_keys 300_000) in
  let b = Index.Buffered.create tree in
  let spans = Index.Buffered.group_levels b in
  check_int "spans sum to levels"
    (Index.Nary_tree.levels tree)
    (Array.fold_left ( + ) 0 spans);
  (* Default budget is L2/2; every non-top group spans the same height. *)
  check_bool "at least two groups for a 3.8MB tree" true (Array.length spans >= 2);
  check_bool "buffers allocated" true (Index.Buffered.buffer_bytes b > 0)

let test_buffered_single_group_degenerates () =
  (* A cache-resident tree needs no buffering at all. *)
  let m, keys, b = buffered_rig ~n:100 () in
  check_int "one group" 1 (Index.Buffered.groups b);
  let qs = Array.init 50 (fun i -> i * 29) in
  let rs = run_batch m b qs in
  Array.iteri
    (fun i q -> check_int "direct" (Index.Ref_impl.rank keys q) rs.(i))
    qs

let test_buffered_cheaper_than_naive_out_of_cache () =
  (* The point of Zhou-Ross: for a tree >> L2, batched buffered lookups
     beat one-by-one random traversals. *)
  let n = 500_000 in
  let keys = Array.init n (fun i -> i * 3) in
  let g = Prng.Splitmix.create 9 in
  let qs = Array.init 20_000 (fun _ -> Prng.Splitmix.int g (3 * n)) in
  (* naive *)
  let m1 = fresh_machine () in
  let t1 = Index.Nary_tree.build m1 keys in
  Array.iter (fun q -> ignore (Index.Nary_tree.search t1 q)) qs;
  let naive = Machine.busy_ns m1 in
  (* buffered *)
  let m2 = fresh_machine () in
  let t2 = Index.Nary_tree.build m2 keys in
  let b = Index.Buffered.create ~max_batch:(Array.length qs) t2 in
  let region = Machine.alloc m2 (Array.length qs) in
  Machine.poke_array m2 region qs;
  Index.Buffered.process_batch b ~queries:region ~results:region
    ~n:(Array.length qs);
  let buffered = Machine.busy_ns m2 in
  check_bool
    (Printf.sprintf "buffered %.2fms < naive %.2fms" (buffered /. 1e6)
       (naive /. 1e6))
    true (buffered < naive)

(* ------------------------------------------------------------------ *)
(* Property tests: all four structures agree on random inputs *)

let prop_nary_level_geometry =
  QCheck.Test.make ~name:"nary level widths shrink by the fanout" ~count:100
    QCheck.(pair (int_range 2 8) (int_range 1 5000))
    (fun (k, n) ->
      let m = fresh_machine () in
      let t = Index.Nary_tree.build ~keys_per_node:k m (Array.init n (fun i -> 2 * i)) in
      let levels = Index.Nary_tree.levels t in
      let ok = ref (Index.Nary_tree.level_nodes t 1 = 1) in
      for l = 1 to levels - 1 do
        let here = Index.Nary_tree.level_nodes t l in
        let below = Index.Nary_tree.level_nodes t (l + 1) in
        if here <> (below + k - 1) / k then ok := false
      done;
      let leaves = Index.Nary_tree.level_nodes t levels in
      !ok && leaves = (n + k - 1) / k)

let prop_buffered_idempotent =
  QCheck.Test.make ~name:"buffered lookups are repeatable" ~count:40
    QCheck.(int_range 1 2000)
    (fun n ->
      let m = fresh_machine () in
      let keys = Array.init n (fun i -> (3 * i) + 1) in
      let tree = Index.Nary_tree.build m keys in
      let b = Index.Buffered.create ~budget_bytes:256 ~max_batch:256 tree in
      let qs = Array.init 200 (fun i -> (i * 31) mod (3 * n) ) in
      let region = Machine.alloc m 200 in
      let round () =
        Machine.poke_array m region qs;
        Index.Buffered.process_batch b ~queries:region ~results:region ~n:200;
        Array.init 200 (fun i -> Machine.peek m (region + i))
      in
      round () = round ())

let prop_all_structures_agree =
  QCheck.Test.make ~name:"all index structures agree with Ref_impl" ~count:60
    QCheck.(pair small_int (int_range 1 400))
    (fun (seed, n) ->
      let g = Prng.Splitmix.create seed in
      let module IS = Set.Make (Int) in
      let rec draw s =
        if IS.cardinal s = n then s
        else draw (IS.add (Prng.Splitmix.int g 100_000) s)
      in
      let keys = Array.of_list (IS.elements (draw IS.empty)) in
      let m = fresh_machine () in
      let sa = Index.Sorted_array.build m keys in
      let nt = Index.Nary_tree.build (fresh_machine ()) keys in
      let ct = Index.Csb_tree.build (fresh_machine ()) keys in
      let bt =
        Index.Buffered.create ~budget_bytes:512
          (Index.Nary_tree.build (fresh_machine ()) keys)
      in
      let ok = ref true in
      for _ = 1 to 50 do
        let q = Prng.Splitmix.int g 110_000 in
        let expect = Index.Ref_impl.rank keys q in
        let mb = Index.Nary_tree.machine (Index.Buffered.tree bt) in
        let region = Machine.alloc mb 1 in
        Machine.poke mb region q;
        Index.Buffered.process_batch bt ~queries:region ~results:region ~n:1;
        ok :=
          !ok
          && Index.Sorted_array.search sa q = expect
          && Index.Nary_tree.search nt q = expect
          && Index.Csb_tree.search ct q = expect
          && Machine.peek mb region = expect
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Images: a replica loaded from an image is the replica a fresh build
   makes, word for word, label for label and nanosecond for nanosecond. *)

let scope_regions sc name =
  match
    List.find_opt
      (fun n -> Obs.Cachescope.node_name n = name)
      (Obs.Cachescope.nodes sc)
  with
  | Some n -> Obs.Cachescope.regions n
  | None -> Alcotest.failf "no scope node %s" name

(* Under one cache scope: [build] on a fresh machine, and an image of
   [build] loaded into a second machine.  Checks the two memories and
   label sets are equal, and returns both machines, the fresh build's
   result and the image's template. *)
let fresh_and_loaded build =
  let sc = Obs.Cachescope.create () in
  Obs.Cachescope.with_recording sc (fun () ->
      let fm = Machine.create (Engine.create ()) ~name:"fresh" p3 in
      let fresh = build fm in
      let img, template = Machine.build_image p3 build in
      let lm = Machine.create (Engine.create ()) ~name:"loaded" p3 in
      Machine.load_image lm img;
      let n = Machine.words_allocated fm in
      check_int "brk" n (Machine.words_allocated lm);
      for a = 0 to n - 1 do
        if Machine.peek fm a <> Machine.peek lm a then
          Alcotest.failf "word %d differs" a
      done;
      check_bool "labelled regions" true
        (scope_regions sc "fresh" = scope_regions sc "loaded");
      check_bool "labelled" true (scope_regions sc "loaded" <> []);
      (fm, fresh, lm, template))

let build_tree keys m =
  Machine.labelled m ~label:"partition" (fun () -> Index.Nary_tree.build m keys)

(* [build] under a label, fresh and through an image: the loaded copy
   answers every query with the fresh build's rank at the same simulated
   cost, and its template is refused by a machine that does not hold
   it. *)
let check_image_roundtrip ~build ~search ~retarget n =
  let keys = make_keys n in
  let fm, fresh, lm, template =
    fresh_and_loaded (fun m ->
        Machine.labelled m ~label:"partition" (fun () -> build m keys))
  in
  let loaded = retarget template lm in
  List.iter
    (fun q ->
      let r = search fresh q in
      check_int "rank" (Index.Ref_impl.rank keys q) r;
      check_int "loaded rank" r (search loaded q))
    (interesting_queries n);
  Alcotest.(check (float 0.0))
    "same simulated cost" (Machine.busy_ns fm) (Machine.busy_ns lm);
  check_bool "empty machine refused" true
    (match retarget template (fresh_machine ()) with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_nary_image () =
  check_image_roundtrip
    ~build:(fun m keys -> Index.Nary_tree.build m keys)
    ~search:Index.Nary_tree.search ~retarget:Index.Nary_tree.retarget 20_000

let test_sorted_array_image () =
  check_image_roundtrip ~build:Index.Sorted_array.build
    ~search:Index.Sorted_array.search ~retarget:Index.Sorted_array.retarget
    20_000

let test_csb_image () =
  check_image_roundtrip
    ~build:(fun m keys -> Index.Csb_tree.build m keys)
    ~search:Index.Csb_tree.search ~retarget:Index.Csb_tree.retarget 20_000

let test_buffered_image () =
  let keys = make_keys 5000 in
  let build m =
    Index.Buffered.create ~budget_bytes:128 ~max_batch:64 (build_tree keys m)
  in
  let fm, fresh, lm, template = fresh_and_loaded build in
  let loaded = Index.Buffered.retarget template lm in
  let qs = Array.append (Array.make 300 5) (Array.init 300 (fun i -> i * 113)) in
  let rs = run_batch fm fresh qs in
  check_bool "loaded results" true (run_batch lm loaded qs = rs);
  check_bool "flushed" true (Index.Buffered.overflow_flushes loaded > 0);
  check_int "same flushes" (Index.Buffered.overflow_flushes fresh)
    (Index.Buffered.overflow_flushes loaded);
  Alcotest.(check (float 0.0))
    "same simulated cost" (Machine.busy_ns fm) (Machine.busy_ns lm);
  (* Re-targeting a used descriptor starts from a clean slate. *)
  let img, _ = Machine.build_image p3 build in
  let m3 = fresh_machine () in
  Machine.load_image m3 img;
  let again = Index.Buffered.retarget loaded m3 in
  check_int "fresh flush count" 0 (Index.Buffered.overflow_flushes again);
  check_bool "fresh copy answers" true (run_batch m3 again qs = rs)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "index"
    [
      ( "ref_impl",
        [
          tc "rank basics" `Quick test_ref_rank_basics;
          tc "partition_of" `Quick test_ref_partition_of;
          tc "ranks edges" `Quick test_ranks_edges;
          tc "dyn dense burst" `Quick test_dyn_dense_burst;
          tc "dyn empty block" `Quick test_dyn_empty_block;
          tc "dyn extreme keys" `Quick test_dyn_extreme_keys;
          tc "dyn create empty" `Quick test_dyn_create_empty;
        ] );
      ("key", [ tc "validation" `Quick test_key_validation ]);
      ( "sorted_array",
        [
          tc "sizes" `Quick test_sorted_array_sizes;
          tc "random agreement" `Quick test_sorted_array_random;
          tc "untimed agrees" `Quick test_sorted_array_untimed_agrees;
          tc "charges time" `Quick test_sorted_array_charges_time;
          tc "rejects unsorted" `Quick test_sorted_array_rejects_unsorted;
        ] );
      ( "nary_tree",
        [
          tc "sizes" `Quick test_nary_sizes;
          tc "random agreement" `Quick test_nary_random;
          tc "other fanouts" `Quick test_nary_other_fanouts;
          tc "layout" `Quick test_nary_layout;
          tc "single node" `Quick test_nary_single_node_tree;
          tc "descend = search" `Quick test_nary_descend_matches_search;
          tc "cache premise" `Slow test_nary_costs_more_when_tree_exceeds_cache;
        ] );
      ( "csb_tree",
        [
          tc "sizes" `Quick test_csb_sizes;
          tc "random agreement" `Quick test_csb_random;
          tc "layout" `Quick test_csb_layout;
          tc "smaller than nary" `Quick test_csb_smaller_than_nary;
          tc "other node widths" `Quick test_csb_other_node_words;
        ] );
      ( "buffered",
        [
          tc "correct small" `Quick test_buffered_correct_small;
          tc "correct multigroup" `Quick test_buffered_correct_multigroup;
          tc "overflow flush" `Quick test_buffered_overflow_flush_correct;
          tc "aliased regions" `Quick test_buffered_aliased_queries_results;
          tc "group plan" `Quick test_buffered_group_plan;
          tc "single group" `Quick test_buffered_single_group_degenerates;
          tc "beats naive out of cache" `Slow
            test_buffered_cheaper_than_naive_out_of_cache;
        ] );
      ( "image",
        [
          tc "nary tree" `Quick test_nary_image;
          tc "sorted array" `Quick test_sorted_array_image;
          tc "csb tree" `Quick test_csb_image;
          tc "tree + buffered" `Quick test_buffered_image;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_nary_level_geometry; prop_buffered_idempotent;
            prop_all_structures_agree; prop_dyn_matches_model;
            prop_ranks_match_rank ] );
    ]
