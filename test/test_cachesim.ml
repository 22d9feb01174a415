(* Tests for the set-associative cache, the TLB, the prefetcher and the
   two-level hierarchy cost model. *)

open Cachesim

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

let small_cache ?(ways = 2) ?(line = 32) ?(size = 256) () =
  (* 256 B, 32 B lines, 2-way: 4 sets. *)
  Cache.create ~size_bytes:size ~line_bytes:line ~ways ()

(* ------------------------------------------------------------------ *)
(* Cache *)

let test_cache_geometry () =
  let c = small_cache () in
  check_int "lines" 8 (Cache.lines c);
  check_int "sets" 4 (Cache.sets c);
  check_int "ways" 2 (Cache.ways c);
  check_int "line of addr 0" 0 (Cache.line_of_addr c 31);
  check_int "line of addr 32" 1 (Cache.line_of_addr c 32)

let test_cache_miss_then_hit () =
  let c = small_cache () in
  check_bool "cold miss" false (Cache.access c ~addr:0 ~write:false);
  ignore (Cache.fill c ~addr:0 ~write:false);
  check_bool "hit after fill" true (Cache.access c ~addr:0 ~write:false);
  check_bool "same line hits" true (Cache.access c ~addr:31 ~write:false);
  check_bool "next line misses" false (Cache.access c ~addr:32 ~write:false)

let test_cache_lru_eviction () =
  let c = small_cache () in
  (* Addresses 0, 128, 256 map to set 0 (line numbers 0, 4, 8). *)
  ignore (Cache.fill c ~addr:0 ~write:false);
  ignore (Cache.fill c ~addr:128 ~write:false);
  (* Touch line 0 so line 4 becomes LRU. *)
  ignore (Cache.access c ~addr:0 ~write:false);
  ignore (Cache.fill c ~addr:256 ~write:false);
  check_bool "MRU line survives" true (Cache.resident c ~addr:0);
  check_bool "LRU line evicted" false (Cache.resident c ~addr:128);
  check_bool "new line resident" true (Cache.resident c ~addr:256)

let test_cache_dirty_writeback () =
  let c = small_cache ~ways:1 () in
  ignore (Cache.fill c ~addr:0 ~write:true);
  (* Same set (8 sets? with ways=1, 256/32 = 8 sets): line 0 and line 8. *)
  let conflicting = 8 * 32 in
  let wrote_back = Cache.fill c ~addr:conflicting ~write:false in
  check_bool "dirty line written back" true wrote_back;
  let s = Cache.stats c in
  check_int "writebacks counted" 1 s.Cache.writebacks;
  check_int "evictions counted" 1 s.Cache.evictions

let test_cache_clean_eviction_no_writeback () =
  let c = small_cache ~ways:1 () in
  ignore (Cache.fill c ~addr:0 ~write:false);
  let wrote_back = Cache.fill c ~addr:(8 * 32) ~write:false in
  check_bool "clean eviction" false wrote_back

let test_cache_write_hit_sets_dirty () =
  let c = small_cache ~ways:1 () in
  ignore (Cache.fill c ~addr:0 ~write:false);
  ignore (Cache.access c ~addr:0 ~write:true);
  check_bool "dirtied by write hit" true (Cache.fill c ~addr:(8 * 32) ~write:false)

let test_cache_invalidate () =
  let c = small_cache () in
  ignore (Cache.fill c ~addr:0 ~write:true);
  ignore (Cache.fill c ~addr:64 ~write:false);
  Cache.invalidate c ~addr:0;
  check_bool "invalidated line gone" false (Cache.resident c ~addr:0);
  check_bool "other line untouched" true (Cache.resident c ~addr:64);
  (* Idempotent on absent lines. *)
  Cache.invalidate c ~addr:0;
  check_bool "still gone" false (Cache.resident c ~addr:0);
  (* A dirty invalidated line is dropped without a write-back. *)
  check_int "no writebacks" 0 (Cache.stats c).Cache.writebacks

let test_cache_flush () =
  let c = small_cache () in
  ignore (Cache.fill c ~addr:0 ~write:false);
  Cache.flush c;
  check_bool "flushed" false (Cache.resident c ~addr:0)

let test_cache_stats_counting () =
  let c = small_cache () in
  ignore (Cache.access c ~addr:0 ~write:false);
  ignore (Cache.fill c ~addr:0 ~write:false);
  ignore (Cache.access c ~addr:0 ~write:false);
  ignore (Cache.access c ~addr:0 ~write:false);
  let s = Cache.stats c in
  check_int "hits" 2 s.Cache.hits;
  check_int "misses" 1 s.Cache.misses;
  Cache.reset_stats c;
  let s = Cache.stats c in
  check_int "reset" 0 (s.Cache.hits + s.Cache.misses)

let test_cache_fully_associative () =
  (* sets = 1: any 4 lines coexist regardless of address bits. *)
  let c = Cache.create ~size_bytes:128 ~line_bytes:32 ~ways:4 () in
  check_int "one set" 1 (Cache.sets c);
  List.iter
    (fun a -> ignore (Cache.fill c ~addr:a ~write:false))
    [ 0; 4096; 8192; 123456 * 32 ];
  check_bool "all resident" true
    (List.for_all
       (fun a -> Cache.resident c ~addr:a)
       [ 0; 4096; 8192; 123456 * 32 ])

let test_cache_bad_geometry_rejected () =
  Alcotest.check_raises "bad line"
    (Invalid_argument "Cache.create: line size must be a power of two")
    (fun () -> ignore (Cache.create ~size_bytes:256 ~line_bytes:33 ~ways:2 ()));
  Alcotest.check_raises "bad size"
    (Invalid_argument "Cache.create: size not a multiple of line * ways")
    (fun () -> ignore (Cache.create ~size_bytes:100 ~line_bytes:32 ~ways:2 ()))

let test_cache_invalidate_middle_then_fill () =
  (* One set of 4 ways.  Fill lines 0-3 (LRU first), drop line 2 from
     the middle of the recency order, then fill line 4: it takes the
     freed slot with no eviction, and the later fills evict the
     survivors oldest first. *)
  let c = Cache.create ~size_bytes:128 ~line_bytes:32 ~ways:4 () in
  List.iter (fun l -> ignore (Cache.fill c ~addr:(l * 32) ~write:false)) [ 0; 1; 2; 3 ];
  Cache.invalidate c ~addr:(2 * 32);
  check_bool "fill into the freed way writes nothing back" false
    (Cache.fill c ~addr:(4 * 32) ~write:false);
  check_int "no victim" (-1) (Cache.last_victim c);
  check_int "no eviction" 0 (Cache.stats c).Cache.evictions;
  let victims =
    List.map
      (fun l ->
        ignore (Cache.fill c ~addr:(l * 32) ~write:false);
        Cache.last_victim c)
      [ 5; 6; 7; 8 ]
  in
  Alcotest.(check (list int)) "survivors evicted in LRU order" [ 0; 1; 3; 4 ] victims

(* Reference model for the optimized cache and the TLB: the same LRU
   semantics written with none of the production tricks — per-slot LRU
   stamps and separate tag/stamp/dirty arrays instead of recency-ordered
   sets of tagged words, a stamp scan instead of the TLB's hash table
   and linked list, no unsafe accesses.  The production paths must be bit-identical to this over
   arbitrary operation streams. *)
module Ref_cache = struct
  type t = {
    sets : int;
    ways : int;
    line_shift : int;
    tag : int array array;
    stamp : int array array;
    dirty : bool array array;
    mutable tick : int;
    mutable hits : int;
    mutable misses : int;
    mutable evictions : int;
    mutable writebacks : int;
    mutable last_victim : int;
    mutable probe_line : int;
    mutable probe_set : int;
  }

  let log2 n =
    let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
    go 0 n

  let create ~size_bytes ~line_bytes ~ways =
    let sets = size_bytes / (line_bytes * ways) in
    {
      sets;
      ways;
      line_shift = log2 line_bytes;
      tag = Array.make_matrix sets ways (-1);
      stamp = Array.make_matrix sets ways 0;
      dirty = Array.make_matrix sets ways false;
      tick = 0;
      hits = 0;
      misses = 0;
      evictions = 0;
      writebacks = 0;
      last_victim = -1;
      probe_line = -1;
      probe_set = 0;
    }

  let find_way t s line =
    let found = ref (-1) in
    for w = 0 to t.ways - 1 do
      if !found = -1 && t.tag.(s).(w) = line then found := w
    done;
    !found

  let probe t ~addr ~write =
    let line = addr lsr t.line_shift in
    let s = line land (t.sets - 1) in
    t.probe_line <- line;
    t.probe_set <- s;
    let w = find_way t s line in
    if w >= 0 then begin
      t.hits <- t.hits + 1;
      t.tick <- t.tick + 1;
      t.stamp.(s).(w) <- t.tick;
      if write then t.dirty.(s).(w) <- true;
      true
    end
    else begin
      t.misses <- t.misses + 1;
      false
    end

  let fill_probed t ~write =
    let line = t.probe_line in
    let s = t.probe_set in
    (* First empty way, else the smallest stamp with the first minimum
       winning ties. *)
    let w =
      match find_way t s (-1) with
      | -1 ->
          let best = ref 0 in
          for w = 1 to t.ways - 1 do
            if t.stamp.(s).(w) < t.stamp.(s).(!best) then best := w
          done;
          !best
      | empty -> empty
    in
    t.last_victim <- t.tag.(s).(w);
    let wrote_back =
      if t.tag.(s).(w) <> -1 then begin
        t.evictions <- t.evictions + 1;
        if t.dirty.(s).(w) then begin
          t.writebacks <- t.writebacks + 1;
          true
        end
        else false
      end
      else false
    in
    t.tick <- t.tick + 1;
    t.tag.(s).(w) <- line;
    t.stamp.(s).(w) <- t.tick;
    t.dirty.(s).(w) <- write;
    wrote_back

  let invalidate t ~addr =
    let line = addr lsr t.line_shift in
    let s = line land (t.sets - 1) in
    match find_way t s line with
    | -1 -> ()
    | w ->
        t.tag.(s).(w) <- -1;
        t.stamp.(s).(w) <- 0;
        t.dirty.(s).(w) <- false

  let flush t =
    for s = 0 to t.sets - 1 do
      for w = 0 to t.ways - 1 do
        t.tag.(s).(w) <- -1;
        t.stamp.(s).(w) <- 0;
        t.dirty.(s).(w) <- false
      done
    done
end

(* One random operation against both implementations: ops 0-2 are the
   fused hot path (probe, fill on miss) exactly as Hierarchy drives it,
   3 a bare probe, 4 a residency check, 5 an invalidate or flush, and 6
   a [rehit] of the line last hit or filled. *)
let cache_op_gen =
  QCheck.Gen.(
    pair (int_range 0 8191) (pair (int_range 0 6) bool)
    |> map (fun (addr, (op, write)) -> (addr, op, write)))

let cache_op_print (addr, op, write) =
  Printf.sprintf "(addr=%d, op=%d, write=%b)" addr op write

(* Geometries chosen to cover the production shapes: low-associativity
   sets like L1, the 8-way sets of the Pentium III L2, and one set of
   many ways. *)
let cache_geometries =
  [
    (1024, 32, 4);    (* 8 sets x 4 ways *)
    (512, 64, 2);     (* 4 sets x 2 ways *)
    (2048, 32, 8);    (* 8 sets x 8 ways *)
    (1024, 64, 16);   (* fully associative, 16 ways *)
  ]

let prop_cache_fast_path_matches_reference =
  QCheck.Test.make ~name:"optimized cache = reference model" ~count:200
    (QCheck.make
       ~print:QCheck.Print.(list cache_op_print)
       (QCheck.Gen.list_size (QCheck.Gen.int_range 0 400) cache_op_gen))
    (fun ops ->
      List.for_all
        (fun (size_bytes, line_bytes, ways) ->
          let c = Cache.create ~size_bytes ~line_bytes ~ways () in
          let r = Ref_cache.create ~size_bytes ~line_bytes ~ways in
          (* An address in the line [rehit] charges: the line last hit
             or filled, while nothing has flushed or invalidated it. *)
          let last = ref None in
          let probe addr write =
            let h = Cache.probe c ~addr ~write in
            if h then last := Some addr;
            h = Ref_cache.probe r ~addr ~write
          in
          List.for_all
            (fun (addr, op, write) ->
              match (op, !last) with
              | (0 | 1 | 2), _ ->
                  (* Fused access+fill, the steady-state path. *)
                  let h = Cache.probe c ~addr ~write in
                  let h' = Ref_cache.probe r ~addr ~write in
                  last := Some addr;
                  h = h'
                  && (h
                     || Cache.fill_probed c ~write
                        = Ref_cache.fill_probed r ~write
                        && Cache.last_victim c = r.Ref_cache.last_victim)
              | 6, Some a ->
                  (* A repeat of the last line: the reference probes it. *)
                  Cache.rehit c ~write;
                  Ref_cache.probe r ~addr:a ~write
              | (3 | 6), _ -> probe addr write
              | 4, _ ->
                  (* [fill] may only follow a missing probe (a resident
                     line must not be duplicated into a second way), so
                     the standalone-fill op checks residency instead. *)
                  let line = addr lsr r.Ref_cache.line_shift in
                  Cache.resident c ~addr
                  = (Ref_cache.find_way r
                       (line land (r.Ref_cache.sets - 1))
                       line
                     >= 0)
              | _ ->
                  (if write then Cache.flush c else Cache.invalidate c ~addr);
                  (if write then Ref_cache.flush r
                   else Ref_cache.invalidate r ~addr);
                  last := None;
                  true)
            ops
          &&
          let s = Cache.stats c in
          s.Cache.hits = r.Ref_cache.hits
          && s.Cache.misses = r.Ref_cache.misses
          && s.Cache.evictions = r.Ref_cache.evictions
          && s.Cache.writebacks = r.Ref_cache.writebacks)
        cache_geometries)

let prop_cache_resident_after_fill =
  QCheck.Test.make ~name:"fill makes line resident" ~count:500
    QCheck.(int_range 0 1_000_000)
    (fun addr ->
      let c = small_cache () in
      ignore (Cache.fill c ~addr ~write:false);
      Cache.resident c ~addr)

let prop_cache_occupancy_bounded =
  QCheck.Test.make ~name:"at most [lines] lines resident" ~count:50
    QCheck.(pair small_int (list (int_range 0 100_000)))
    (fun (_, addrs) ->
      let c = small_cache () in
      List.iter (fun a -> ignore (Cache.fill c ~addr:a ~write:false)) addrs;
      let distinct_resident =
        List.sort_uniq compare (List.map (Cache.line_of_addr c) addrs)
        |> List.filter (fun l -> Cache.resident c ~addr:(l * 32))
        |> List.length
      in
      distinct_resident <= Cache.lines c)

(* ------------------------------------------------------------------ *)
(* TLB *)

let page = 4096

let test_tlb_lru () =
  let t = Tlb.create ~entries:2 ~page_bytes:page in
  check_bool "cold miss" false (Tlb.access t ~addr:0);
  check_bool "same page hits" true (Tlb.access t ~addr:(page - 4));
  check_bool "second page misses" false (Tlb.access t ~addr:page);
  (* Touch page 0 so page 1 becomes LRU. *)
  check_bool "page 0 hits" true (Tlb.access t ~addr:0);
  check_bool "third page misses" false (Tlb.access t ~addr:(2 * page));
  check_bool "older page survives" true (Tlb.access t ~addr:0);
  check_bool "LRU page was evicted" false (Tlb.access t ~addr:page);
  let s = Tlb.stats t in
  check_int "hits" 3 s.Cache.hits;
  check_int "misses" 4 s.Cache.misses;
  check_int "evictions" 2 s.Cache.evictions;
  Tlb.flush t;
  check_bool "flushed" false (Tlb.access t ~addr:0);
  check_int "flush keeps stats" 5 (Tlb.stats t).Cache.misses;
  Tlb.reset_stats t;
  check_int "reset" 0 (Tlb.stats t).Cache.misses;
  Alcotest.check_raises "bad page size"
    (Invalid_argument "Tlb.create: page size must be a power of two")
    (fun () -> ignore (Tlb.create ~entries:4 ~page_bytes:3000))

(* Page-strided streams: [k * stride] pages for a random [k < n].
   Strides that are multiples of 128 pages are the power-of-two buffer
   spacings that defeat an index of [page land 127]; [n] around the 64
   entries makes the stream hit, miss and evict. *)
let tlb_op_gen =
  QCheck.Gen.(
    pair (oneofl [ 1; 3; 128; 256; 384; 1024 ]) (int_range 1 96)
    >>= fun (stride, n) ->
    list_size (int_range 0 600)
      (frequency
         [
           (1, return None);
           ( 60,
             map2
               (fun k off -> Some (((k * stride) * page) + off))
               (int_range 0 (n - 1))
               (int_range 0 (page - 1)) );
         ]))

let prop_tlb_matches_reference =
  QCheck.Test.make ~name:"Tlb = reference LRU" ~count:300
    (QCheck.make
       ~print:
         QCheck.Print.(
           list (function None -> "flush" | Some a -> string_of_int a))
       tlb_op_gen)
    (fun ops ->
      let entries = 64 in
      let t = Tlb.create ~entries ~page_bytes:page in
      let r =
        Ref_cache.create ~size_bytes:(entries * page) ~line_bytes:page
          ~ways:entries
      in
      List.for_all
        (function
          | None ->
              Tlb.flush t;
              Ref_cache.flush r;
              true
          | Some addr ->
              let hit = Tlb.access t ~addr in
              let hit' = Ref_cache.probe r ~addr ~write:false in
              if not hit' then ignore (Ref_cache.fill_probed r ~write:false);
              hit = hit')
        ops
      &&
      let s = Tlb.stats t in
      s.Cache.hits = r.Ref_cache.hits
      && s.Cache.misses = r.Ref_cache.misses
      && s.Cache.evictions = r.Ref_cache.evictions
      && s.Cache.writebacks = 0)

(* ------------------------------------------------------------------ *)
(* Prefetcher *)

let test_prefetcher_detects_stream () =
  let pf = Prefetcher.create () in
  check_bool "first miss random" false (Prefetcher.note_miss pf ~line:100);
  check_bool "next line sequential" true (Prefetcher.note_miss pf ~line:101);
  check_bool "keeps following" true (Prefetcher.note_miss pf ~line:102);
  check_bool "jump is random" false (Prefetcher.note_miss pf ~line:500)

let test_prefetcher_interleaved_streams () =
  let pf = Prefetcher.create ~streams:4 () in
  ignore (Prefetcher.note_miss pf ~line:10);
  ignore (Prefetcher.note_miss pf ~line:1000);
  check_bool "stream A" true (Prefetcher.note_miss pf ~line:11);
  check_bool "stream B" true (Prefetcher.note_miss pf ~line:1001);
  check_bool "stream A again" true (Prefetcher.note_miss pf ~line:12)

let test_prefetcher_capacity_thrash () =
  (* More interleaved streams than detectors: classification degrades to
     random, as intended for scattered buffer writes. *)
  let pf = Prefetcher.create ~streams:2 () in
  ignore (Prefetcher.note_miss pf ~line:0);
  ignore (Prefetcher.note_miss pf ~line:1000);
  ignore (Prefetcher.note_miss pf ~line:2000);
  ignore (Prefetcher.note_miss pf ~line:3000);
  check_bool "evicted stream lost" false (Prefetcher.note_miss pf ~line:1)

let test_prefetcher_counters () =
  let pf = Prefetcher.create () in
  ignore (Prefetcher.note_miss pf ~line:5);
  ignore (Prefetcher.note_miss pf ~line:6);
  ignore (Prefetcher.note_miss pf ~line:7);
  check_int "seq" 2 (Prefetcher.sequential_hits pf);
  check_int "rand" 1 (Prefetcher.random_misses pf);
  Prefetcher.reset pf;
  check_int "reset" 0 (Prefetcher.sequential_hits pf + Prefetcher.random_misses pf)

(* ------------------------------------------------------------------ *)
(* Mem_params *)

let test_params_pentium3_table2 () =
  let p = Mem_params.pentium3 in
  check_int "L2 size" (512 * 1024) p.Mem_params.l2_size;
  check_int "L1 size" (16 * 1024) p.Mem_params.l1_size;
  check_int "L2 line" 32 p.Mem_params.l2_line;
  check_int "L1 line" 32 p.Mem_params.l1_line;
  check_float "B2" 110.0 p.Mem_params.b2_penalty_ns;
  check_float "B1" 16.25 p.Mem_params.b1_penalty_ns;
  check_int "TLB" 64 p.Mem_params.tlb_entries;
  check_float "comp cost node" 30.0 p.Mem_params.comp_cost_node_ns;
  check_int "words per line" 8 (Mem_params.words_per_line p);
  (* W1 = 647 MB/s *)
  check_bool "W1" true
    (Float.abs (Simcore.Simtime.mb_per_s_of_bytes_per_ns p.Mem_params.mem_seq_bw -. 647.0)
     < 0.5)

let test_params_random_bw_matches_measurement () =
  (* The paper measured ~48 MB/s random bandwidth; one 4-byte word per
     110 ns B2 penalty implies ~36 MB/s — same order, latency-bound. *)
  let p = Mem_params.pentium3 in
  let mb =
    Simcore.Simtime.mb_per_s_of_bytes_per_ns
      (float p.word_bytes /. p.b2_penalty_ns)
  in
  check_bool "tens of MB/s" true (mb > 20.0 && mb < 60.0)

(* ------------------------------------------------------------------ *)
(* Hierarchy *)

let p3 = Mem_params.pentium3

let test_hierarchy_costs_by_level () =
  let h = Hierarchy.create p3 in
  (* Cold access: TLB miss + random L2 miss. *)
  let c1 = Hierarchy.access h ~addr:0 ~write:false in
  check_float "cold cost" (p3.Mem_params.tlb_penalty_ns +. p3.Mem_params.b2_penalty_ns) c1;
  (* Now resident everywhere: L1 hit costs l1_hit_ns = 0. *)
  let c2 = Hierarchy.access h ~addr:0 ~write:false in
  check_float "L1 hit" p3.Mem_params.l1_hit_ns c2

let test_hierarchy_access_allocation_free () =
  (* The uninstrumented access path allocates nothing, L2 misses
     (prefetcher stream search, fills, write-backs) included. *)
  let h = Hierarchy.create p3 in
  let n = 1 lsl 16 in
  let rng = Random.State.make [| 2005 |] in
  let addrs = Array.init n (fun _ -> Random.State.int rng (1 lsl 26)) in
  let charge = [| 0.0; 0.0 |] in
  let before = Gc.minor_words () in
  for i = 0 to n - 1 do
    Hierarchy.access_into h ~addr:addrs.(i) ~write:(i land 1 = 0) ~charge
  done;
  let words = Gc.minor_words () -. before in
  let s = Hierarchy.stats h in
  check_bool "L2-miss heavy" true
    (s.Hierarchy.seq_misses + s.Hierarchy.rand_misses > n / 2);
  check_bool "write-backs taken" true (s.Hierarchy.writebacks > 0);
  check_float "minor words" 0.0 words

let test_hierarchy_l2_hit_cost () =
  let h = Hierarchy.create p3 in
  ignore (Hierarchy.access h ~addr:0 ~write:false);
  (* Evict from L1 by filling its set: L1 16 KB 4-way 32 B lines = 128
     sets; same L1 set stride = 128*32 = 4096 bytes. Use 4 distinct lines
     mapping to L1 set 0 but different L2 sets where possible. *)
  for i = 1 to 4 do
    ignore (Hierarchy.access h ~addr:(i * 4096) ~write:false)
  done;
  (* addr 0 now evicted from L1 but still in L2 (L2 is 8-way, 2048 sets —
     hmm, same L2 set stride is 64 KB, so these all landed in different L2
     sets and addr 0 is L2-resident). *)
  let c = Hierarchy.access h ~addr:0 ~write:false in
  check_float "B1 penalty" p3.Mem_params.b1_penalty_ns c

let test_hierarchy_sequential_stream_cheap () =
  let h = Hierarchy.create p3 in
  (* Touch 3 consecutive lines; misses 2 and 3 are stream-classified. *)
  let line = p3.Mem_params.l2_line in
  ignore (Hierarchy.access h ~addr:(10 * line) ~write:false);
  let c2 = Hierarchy.access h ~addr:(11 * line) ~write:false in
  let expected = float_of_int line /. p3.Mem_params.mem_seq_bw in
  check_float "stream miss at W1" expected c2;
  let s = Hierarchy.stats h in
  check_int "seq misses" 1 s.Hierarchy.seq_misses;
  check_int "rand misses" 1 s.Hierarchy.rand_misses

let test_hierarchy_random_pattern_expensive () =
  let h = Hierarchy.create p3 in
  let g = Prng.Splitmix.create 99 in
  let n = 2000 in
  let total = ref 0.0 in
  for _ = 1 to n do
    (* Random words over 64 MB: essentially always TLB+L2 misses. *)
    let addr = Prng.Splitmix.int g (64 * 1024 * 1024 / 4) * 4 in
    total := !total +. Hierarchy.access h ~addr ~write:false
  done;
  let per = !total /. float_of_int n in
  check_bool "close to B2 + TLB" true (per > 100.0 && per < 160.0)

let test_hierarchy_tlb_page_granularity () =
  let h = Hierarchy.create p3 in
  ignore (Hierarchy.access h ~addr:0 ~write:false);
  (* Different line, same 4 KB page: no TLB miss. *)
  let c = Hierarchy.access h ~addr:512 ~write:false in
  let s = Hierarchy.stats h in
  check_int "one TLB miss" 1 s.Hierarchy.tlb_misses;
  check_float "no TLB penalty on second" p3.Mem_params.b2_penalty_ns c

let test_hierarchy_writeback_charged () =
  let h = Hierarchy.create p3 in
  (* Dirty a line, then evict it from L2 with conflicting fills: L2 512 KB
     8-way 32 B = 2048 sets; same-set stride = 64 KB. *)
  ignore (Hierarchy.access h ~addr:0 ~write:true);
  for i = 1 to 8 do
    ignore (Hierarchy.access h ~addr:(i * 64 * 1024) ~write:false)
  done;
  let s = Hierarchy.stats h in
  check_int "writeback happened" 1 s.Hierarchy.writebacks

let test_hierarchy_working_set_within_l2_settles () =
  let h = Hierarchy.create p3 in
  (* A 128 KB working set scanned repeatedly ends up fully resident:
     second pass and later cost ~0. *)
  let words = 128 * 1024 / 4 in
  for _pass = 1 to 3 do
    for w = 0 to words - 1 do
      ignore (Hierarchy.access h ~addr:(w * 4) ~write:false)
    done
  done;
  Hierarchy.reset_stats h;
  for w = 0 to words - 1 do
    ignore (Hierarchy.access h ~addr:(w * 4) ~write:false)
  done;
  let s = Hierarchy.stats h in
  check_int "no more L2 misses" 0 (s.Hierarchy.seq_misses + s.Hierarchy.rand_misses);
  (* Scanning 128 KB through a 16 KB L1 still pays one B1 per line. *)
  check_int "every line re-promoted from L2" (128 * 1024 / 32) s.Hierarchy.l2_hits;
  check_bool "cost is B1-dominated" true
    (s.Hierarchy.cost_ns < float_of_int (128 * 1024 / 32) *. 16.25 *. 1.05)

let test_hierarchy_flush_recolds () =
  let h = Hierarchy.create p3 in
  ignore (Hierarchy.access h ~addr:0 ~write:false);
  Hierarchy.flush h;
  let c = Hierarchy.access h ~addr:0 ~write:false in
  check_float "cold again" (p3.Mem_params.tlb_penalty_ns +. p3.Mem_params.b2_penalty_ns) c

let test_hierarchy_invalidate_range () =
  let h = Hierarchy.create p3 in
  (* Warm three lines, invalidate the middle byte range, re-access. *)
  for l = 0 to 2 do
    ignore (Hierarchy.access h ~addr:(l * 32) ~write:false)
  done;
  ignore (Hierarchy.access h ~addr:32 ~write:false);
  (* warm: hits *)
  Hierarchy.invalidate_range h ~addr:32 ~bytes:32;
  Hierarchy.reset_stats h;
  ignore (Hierarchy.access h ~addr:0 ~write:false);
  ignore (Hierarchy.access h ~addr:32 ~write:false);
  ignore (Hierarchy.access h ~addr:64 ~write:false);
  let s = Hierarchy.stats h in
  check_int "only the invalidated line re-misses" 1
    (s.Hierarchy.seq_misses + s.Hierarchy.rand_misses);
  check_int "neighbours still hit in L1" 2 s.Hierarchy.l1_hits

let test_hierarchy_invalidate_range_spans_lines () =
  let h = Hierarchy.create p3 in
  for l = 0 to 9 do
    ignore (Hierarchy.access h ~addr:(l * 32) ~write:false)
  done;
  (* 2..8 inclusive: bytes 70..270 overlap lines 2 through 8. *)
  Hierarchy.invalidate_range h ~addr:70 ~bytes:200;
  Hierarchy.reset_stats h;
  for l = 0 to 9 do
    ignore (Hierarchy.access h ~addr:(l * 32) ~write:false)
  done;
  let s = Hierarchy.stats h in
  check_int "7 lines re-missed" 7 (s.Hierarchy.seq_misses + s.Hierarchy.rand_misses)

(* The fast path memoises the previous access's L1 line.  Invalidating
   exactly that line must drop the memo too, or the next access would
   count a hit on a line that is gone. *)
let test_hierarchy_invalidate_memoised_line () =
  let h = Hierarchy.create p3 in
  ignore (Hierarchy.access h ~addr:64 ~write:false);
  Hierarchy.invalidate_range h ~addr:64 ~bytes:32;
  Hierarchy.reset_stats h;
  ignore (Hierarchy.access h ~addr:68 ~write:false);
  let s = Hierarchy.stats h in
  check_int "no L1 hit" 0 s.Hierarchy.l1_hits;
  check_int "re-missed to RAM" 1 (s.Hierarchy.seq_misses + s.Hierarchy.rand_misses)

let counter snap ?labels name =
  match Obs.Metrics.Snapshot.find snap ?labels name with
  | Some (Obs.Metrics.Snapshot.Counter v) -> int_of_float v
  | _ -> Alcotest.failf "counter %s missing" name

(* A write that repeats the line a read just brought in must still
   dirty it: evicting the line from L1 later is a write-back.  (L1 stride
   of one set: 128 sets x 32 B = 4 KB.) *)
let test_hierarchy_repeat_write_dirties () =
  let h = Hierarchy.create p3 in
  ignore (Hierarchy.access h ~addr:0 ~write:false);
  ignore (Hierarchy.access h ~addr:4 ~write:true);
  for i = 1 to 4 do
    ignore (Hierarchy.access h ~addr:(i * 4096) ~write:false)
  done;
  let reg = Obs.Metrics.create () in
  Hierarchy.record_metrics h reg;
  check_int "dirty L1 eviction written back" 1
    (counter (Obs.Metrics.snapshot reg) ~labels:[ ("level", "L1") ]
       "cache_writebacks")

let test_hierarchy_reset_stats_all_levels () =
  let h = Hierarchy.create p3 in
  for w = 0 to 4095 do
    ignore (Hierarchy.access h ~addr:(w * 64) ~write:(w land 1 = 0))
  done;
  Hierarchy.reset_stats h;
  for w = 0 to 255 do
    ignore (Hierarchy.access h ~addr:(w * 4) ~write:false)
  done;
  let reg = Obs.Metrics.create () in
  Hierarchy.record_metrics h reg;
  let snap = Obs.Metrics.snapshot reg in
  let level l name = counter snap ~labels:[ ("level", l) ] name in
  let s = Hierarchy.stats h in
  check_int "accesses" 256 (counter snap "mem_accesses");
  check_int "L1 hits = cache_hits{L1}" (counter snap "mem_l1_hits")
    (level "L1" "cache_hits");
  check_int "L1 misses" (s.Hierarchy.accesses - s.Hierarchy.l1_hits)
    (level "L1" "cache_misses");
  check_int "L2 hits = cache_hits{L2}" (counter snap "mem_l2_hits")
    (level "L2" "cache_hits");
  check_int "TLB misses = cache_misses{TLB}" (counter snap "mem_tlb_misses")
    (level "TLB" "cache_misses");
  check_int "TLB probes = accesses" 256
    (level "TLB" "cache_hits" + level "TLB" "cache_misses")

let test_pentium4_profile_sane () =
  let p = Mem_params.pentium4 in
  check_int "wide lines" 128 p.Mem_params.l2_line;
  check_int "words per line" 32 (Mem_params.words_per_line p);
  let h = Hierarchy.create p in
  let c = Hierarchy.access h ~addr:0 ~write:false in
  check_float "cold miss costs tlb+b2"
    (p.Mem_params.tlb_penalty_ns +. p.Mem_params.b2_penalty_ns) c

(* ------------------------------------------------------------------ *)
(* Cache microscope *)

(* A hierarchy small enough to classify by hand: 4-line direct-mapped
   L1 (4 sets), 8-line fully-associative L2. *)
let tiny_params =
  {
    p3 with
    Mem_params.name = "tiny";
    l1_size = 4 * 32;
    l1_line = 32;
    l1_ways = 1;
    l2_size = 8 * 32;
    l2_line = 32;
    l2_ways = 8;
  }

let test_scope_3c_oracle () =
  let h = Hierarchy.create tiny_params in
  let sc = Obs.Cachescope.create () in
  let node = Hierarchy.attach_scope h sc ~node_name:"n0" in
  (* Lines 0-3 are the "partition"; lines 4+ fall to "other". *)
  Obs.Cachescope.label_region node ~label:"partition" ~lo:0 ~hi:128;
  (* Reference stream, by line number.  Direct-mapped L1 (set = line
     mod 4): 0 and 4 fight over set 0, 1 and 5 over set 1.
       0 miss (first touch)            -> compulsory
       4 miss (first touch)            -> compulsory
       0 miss, stack distance 1 < 4    -> conflict (a 4-line LRU holds it)
       1 miss (first touch)            -> compulsory
       2 miss (first touch)            -> compulsory
       3 miss (first touch)            -> compulsory
       5 miss (first touch)            -> compulsory
       0 HIT  (set 0 kept it)
       1 miss, stack distance 4 >= 4   -> capacity (even LRU evicts it)
     The L2 stream is the eight L1 misses; all fit in 8 ways, so its
     only misses are the six first touches. *)
  List.iter
    (fun line -> ignore (Hierarchy.access h ~addr:(line * 32) ~write:false))
    [ 0; 4; 0; 1; 2; 3; 5; 0; 1 ];
  check_bool "L1 hits/misses" true
    (List.assoc "L1" (Obs.Cachescope.hit_miss node) = (1, 8));
  check_bool "L2 hits/misses" true
    (List.assoc "L2" (Obs.Cachescope.hit_miss node) = (2, 6));
  let com1, cap1, con1 = Obs.Cachescope.c3_totals node ~level:"L1" in
  check_int "L1 compulsory" 6 com1;
  check_int "L1 capacity" 1 cap1;
  check_int "L1 conflict" 1 con1;
  let com2, cap2, con2 = Obs.Cachescope.c3_totals node ~level:"L2" in
  check_int "L2 compulsory" 6 com2;
  check_int "L2 capacity" 0 cap2;
  check_int "L2 conflict" 0 con2;
  (* Demand misses per set: 0 and 4 collide in set 0, 1 and 5 in set 1. *)
  check_bool "L1 set pressure" true
    (List.assoc "L1" (Obs.Cachescope.set_pressure node) = [| 3; 3; 1; 1 |]);
  check_bool "L2 set pressure" true
    (List.assoc "L2" (Obs.Cachescope.set_pressure node) = [| 6 |]);
  (* Reuse profile: partition lines 0-3 are 4 cold touches plus the 3
     re-references (two of line 0, one of line 1); 4 and 5 never
     re-reference. *)
  let profile region =
    List.find_map
      (fun (level, rg, cold, hist) ->
        if level = "L1" && rg = region then Some (cold, hist) else None)
      (Obs.Cachescope.reuse_profiles node)
  in
  (match profile "partition" with
  | Some (cold, hist) ->
      check_int "partition cold lines" 4 cold;
      check_int "partition re-references" 3 hist.Obs.Hist.count
  | None -> Alcotest.fail "partition reuse profile missing");
  (match profile "other" with
  | Some (cold, hist) ->
      check_int "other cold lines" 2 cold;
      check_int "other re-references" 0 hist.Obs.Hist.count
  | None -> Alcotest.fail "other reuse profile missing");
  (* All four partition lines ended up resident at both levels; an
     invalidation (the DMA path) drops the fraction. *)
  let resid level =
    List.find_map
      (fun (lv, rg, f) ->
        if lv = level && rg = "partition" then Some f else None)
      (Obs.Cachescope.residency node)
    |> Option.get
  in
  check_float "L1 partition residency" 1.0 (resid "L1");
  check_float "L2 partition residency" 1.0 (resid "L2");
  Hierarchy.invalidate_range h ~addr:0 ~bytes:64;
  check_float "L1 residency after invalidate" 0.5 (resid "L1");
  check_float "L2 residency after invalidate" 0.5 (resid "L2")

let test_prefetch_attribution () =
  (* Sequential scan: the first miss trains a stream, every later miss
     extends it, consuming the previous prediction. *)
  let h = Hierarchy.create p3 in
  for line = 0 to 63 do
    ignore (Hierarchy.access h ~addr:(line * 32) ~write:false)
  done;
  let s = Hierarchy.stats h in
  check_int "demand seq misses" 63 s.Hierarchy.seq_misses;
  check_int "demand rand misses" 1 s.Hierarchy.rand_misses;
  let reg = Obs.Metrics.create () in
  Hierarchy.record_metrics h reg;
  let counter name =
    match Obs.Metrics.Snapshot.find (Obs.Metrics.snapshot reg) name with
    | Some (Obs.Metrics.Snapshot.Counter v) -> int_of_float v
    | _ -> Alcotest.failf "counter %s missing" name
  in
  check_int "every miss issues a prediction" 64 (counter "prefetch_fills");
  check_int "sequential run consumes them" 63 (counter "prefetch_useful");
  check_int "nothing retired unconsumed" 0 (counter "prefetch_useless");
  (* Stride-2 scan: no stream ever matches, so predictions die unconsumed
     as the 16 detectors are recycled round-robin. *)
  let h = Hierarchy.create p3 in
  for i = 0 to 63 do
    ignore (Hierarchy.access h ~addr:(i * 2 * 32) ~write:false)
  done;
  let s = Hierarchy.stats h in
  check_int "strided: all demand misses random" 64 s.Hierarchy.rand_misses;
  check_int "strided: no seq misses" 0 s.Hierarchy.seq_misses;
  let reg = Obs.Metrics.create () in
  Hierarchy.record_metrics h reg;
  let counter name =
    match Obs.Metrics.Snapshot.find (Obs.Metrics.snapshot reg) name with
    | Some (Obs.Metrics.Snapshot.Counter v) -> int_of_float v
    | _ -> Alcotest.failf "counter %s missing" name
  in
  check_int "strided: fills" 64 (counter "prefetch_fills");
  check_int "strided: useful" 0 (counter "prefetch_useful");
  check_int "strided: useless = recycled detectors" 48
    (counter "prefetch_useless")

let test_hierarchy_stats_add () =
  let a =
    { Hierarchy.zero_stats with Hierarchy.accesses = 3; cost_ns = 10.0 }
  in
  let b =
    { Hierarchy.zero_stats with Hierarchy.accesses = 4; cost_ns = 2.5 }
  in
  let c = Hierarchy.add_stats a b in
  check_int "accesses" 7 c.Hierarchy.accesses;
  check_float "cost" 12.5 c.Hierarchy.cost_ns

(* The fast path (no recorder: repeat-line memo, no hooks) against the
   instrumented path (a hierarchy built under an ambient profile) over
   one word stream: runs of consecutive words, repeats, writes,
   invalidations and flushes.  Every per-access cost must be bit-equal,
   and so must the statistics and the metrics. *)
type hier_op =
  | Run of int * int * bool (* first word address, words, write *)
  | Again of bool (* the previous address once more, write *)
  | Invalidate of int * int (* byte address, bytes *)
  | Invalidate_last of int (* bytes from the previous address *)
  | Flush

let hier_op_gen ~span =
  QCheck.Gen.(
    frequency
      [
        ( 20,
          map3
            (fun w n write -> Run (w * 4, n, write))
            (int_range 0 ((span / 4) - 1))
            (int_range 1 24) bool );
        (4, map (fun write -> Again write) bool);
        (2, map (fun n -> Invalidate_last n) (int_range 1 64));
        ( 2,
          map2
            (fun a n -> Invalidate (a, n))
            (int_range 0 (span - 1))
            (int_range 0 96) );
        (1, return Flush);
      ])

let hier_op_print = function
  | Run (a, n, w) -> Printf.sprintf "Run(%d,%d,%b)" a n w
  | Again w -> Printf.sprintf "Again(%b)" w
  | Invalidate_last n -> Printf.sprintf "Invalidate_last(%d)" n
  | Invalidate (a, n) -> Printf.sprintf "Invalidate(%d,%d)" a n
  | Flush -> "Flush"

(* A hierarchy small enough that short streams evict at every level:
   pages (16 B) smaller than an L1 line in one, a real 4 KB page over
   the paper's caches in the other. *)
let fast_slow_params =
  [
    ({ tiny_params with Mem_params.tlb_entries = 4; page_bytes = 16 }, 2048);
    (p3, 4 * 1024 * 1024);
  ]

let prop_fast_path_matches_instrumented =
  QCheck.Test.make ~name:"fast path = instrumented path" ~count:150
    (QCheck.make
       ~print:QCheck.Print.(pair int (list hier_op_print))
       QCheck.Gen.(
         int_range 0 (List.length fast_slow_params - 1) >>= fun i ->
         let span = snd (List.nth fast_slow_params i) in
         pair (return i) (list_size (int_range 0 200) (hier_op_gen ~span))))
    (fun (i, ops) ->
      let params = fst (List.nth fast_slow_params i) in
      let fast = Hierarchy.create params in
      let slow =
        Obs.Profile.with_recording (Obs.Profile.create ()) (fun () ->
            Hierarchy.create params)
      in
      let bits c = Int64.bits_of_float c.(0) in
      let last = ref 0 in
      let invalidate a n =
        Hierarchy.invalidate_range fast ~addr:a ~bytes:n;
        Hierarchy.invalidate_range slow ~addr:a ~bytes:n;
        true
      in
      let same_access addr write =
        last := addr;
        let cf = [| 0.0; 0.0 |] and cs = [| 0.0; 0.0 |] in
        Hierarchy.access_into fast ~addr ~write ~charge:cf;
        Hierarchy.access_into slow ~addr ~write ~charge:cs;
        bits cf = bits cs
      in
      let ok =
        List.for_all
          (function
            | Run (a, n, write) ->
                List.for_all
                  (fun k ->
                    (* Every word twice: a run of repeats per line. *)
                    same_access (a + (4 * (k / 2))) write)
                  (List.init (2 * n) Fun.id)
            | Again write -> same_access !last write
            | Invalidate (a, n) -> invalidate a n
            | Invalidate_last n -> invalidate !last n
            | Flush ->
                Hierarchy.flush fast;
                Hierarchy.flush slow;
                true)
          ops
      in
      let metrics h =
        let reg = Obs.Metrics.create () in
        Hierarchy.record_metrics h reg;
        Obs.Metrics.snapshot reg
      in
      let sf = Hierarchy.stats fast and ss = Hierarchy.stats slow in
      ok
      && { sf with Hierarchy.cost_ns = 0.0 } = { ss with Hierarchy.cost_ns = 0.0 }
      && Int64.bits_of_float sf.Hierarchy.cost_ns
         = Int64.bits_of_float ss.Hierarchy.cost_ns
      && metrics fast = metrics slow)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "cachesim"
    [
      ( "cache",
        [
          tc "geometry" `Quick test_cache_geometry;
          tc "miss then hit" `Quick test_cache_miss_then_hit;
          tc "LRU eviction" `Quick test_cache_lru_eviction;
          tc "dirty writeback" `Quick test_cache_dirty_writeback;
          tc "clean eviction" `Quick test_cache_clean_eviction_no_writeback;
          tc "write hit dirties" `Quick test_cache_write_hit_sets_dirty;
          tc "invalidate" `Quick test_cache_invalidate;
          tc "flush" `Quick test_cache_flush;
          tc "stats" `Quick test_cache_stats_counting;
          tc "fully associative" `Quick test_cache_fully_associative;
          tc "bad geometry" `Quick test_cache_bad_geometry_rejected;
          tc "invalidate middle, then fill" `Quick
            test_cache_invalidate_middle_then_fill;
        ] );
      ("tlb", [ tc "LRU" `Quick test_tlb_lru ]);
      ( "prefetcher",
        [
          tc "detects stream" `Quick test_prefetcher_detects_stream;
          tc "interleaved streams" `Quick test_prefetcher_interleaved_streams;
          tc "capacity thrash" `Quick test_prefetcher_capacity_thrash;
          tc "counters" `Quick test_prefetcher_counters;
        ] );
      ( "params",
        [
          tc "pentium3 = Table 2" `Quick test_params_pentium3_table2;
          tc "random bandwidth" `Quick test_params_random_bw_matches_measurement;
        ] );
      ( "hierarchy",
        [
          tc "cost by level" `Quick test_hierarchy_costs_by_level;
          tc "L2 hit cost" `Quick test_hierarchy_l2_hit_cost;
          tc "sequential stream" `Quick test_hierarchy_sequential_stream_cheap;
          tc "random pattern" `Quick test_hierarchy_random_pattern_expensive;
          tc "TLB page granularity" `Quick test_hierarchy_tlb_page_granularity;
          tc "writeback" `Quick test_hierarchy_writeback_charged;
          tc "resident set settles" `Quick test_hierarchy_working_set_within_l2_settles;
          tc "flush recolds" `Quick test_hierarchy_flush_recolds;
          tc "invalidate range" `Quick test_hierarchy_invalidate_range;
          tc "invalidate spans lines" `Quick test_hierarchy_invalidate_range_spans_lines;
          tc "invalidate memoised line" `Quick test_hierarchy_invalidate_memoised_line;
          tc "repeat write dirties" `Quick test_hierarchy_repeat_write_dirties;
          tc "reset stats all levels" `Quick test_hierarchy_reset_stats_all_levels;
          tc "pentium4 profile" `Quick test_pentium4_profile_sane;
          tc "stats add" `Quick test_hierarchy_stats_add;
          tc "access allocates nothing" `Quick
            test_hierarchy_access_allocation_free;
        ] );
      ( "scope",
        [
          tc "3C oracle" `Quick test_scope_3c_oracle;
          tc "prefetch attribution" `Quick test_prefetch_attribution;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_cache_resident_after_fill;
            prop_cache_occupancy_bounded;
            prop_cache_fast_path_matches_reference;
            prop_tlb_matches_reference;
            prop_fast_path_matches_instrumented;
          ] );
    ]
