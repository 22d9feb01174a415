(* Tests for the simulated node: allocation, timed/untimed access and
   clock integration. *)

open Simcore

let p3 = Cachesim.Mem_params.pentium3
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

let with_machine f =
  let eng = Engine.create () in
  let m = Machine.create eng ~name:"n0" p3 in
  f eng m

let test_alloc_alignment () =
  with_machine (fun _ m ->
      let a = Machine.alloc m 3 in
      let b = Machine.alloc m 5 in
      check_int "first at 0" 0 a;
      (* default alignment = one L2 line = 8 words *)
      check_int "second line-aligned" 8 b;
      let c = Machine.alloc m ~align_words:1 1 in
      check_int "unaligned packs tight" 13 c;
      check_int "allocated" 14 (Machine.words_allocated m))

let test_poke_peek_roundtrip () =
  with_machine (fun _ m ->
      let a = Machine.alloc m 10 in
      Machine.poke m (a + 3) 42;
      check_int "peek" 42 (Machine.peek m (a + 3));
      check_float "untimed" 0.0 (Machine.busy_ns m))

let test_poke_array () =
  with_machine (fun _ m ->
      let a = Machine.alloc m 5 in
      Machine.poke_array m a [| 1; 2; 3; 4; 5 |];
      for i = 0 to 4 do
        check_int "bulk poke" (i + 1) (Machine.peek m (a + i))
      done)

let test_peek_array () =
  with_machine (fun _ m ->
      let a = Machine.alloc m 5 in
      Machine.poke_array m a [| 1; 2; 0xFFFF_FFFF; 4; 5 |];
      check_bool "bulk peek" true
        (Machine.peek_array m (a + 1) 4 = [| 2; 0xFFFF_FFFF; 4; 5 |]);
      check_bool "empty range" true (Machine.peek_array m (a + 5) 0 = [||]);
      List.iter
        (fun (what, start, n) ->
          check_bool what true
            (match Machine.peek_array m start n with
            | _ -> false
            | exception Invalid_argument _ -> true))
        [
          ("past the end raises", a + 1, 5);
          ("negative start raises", -1, 2);
          ("negative length raises", a, -1);
        ])

let test_bounds_checked () =
  with_machine (fun _ m ->
      let _ = Machine.alloc m 4 in
      check_bool "read oob raises" true
        (match Machine.read m 100 with
        | _ -> false
        | exception Invalid_argument _ -> true);
      check_bool "negative raises" true
        (match Machine.peek m (-1) with
        | _ -> false
        | exception Invalid_argument _ -> true))

let test_memory_grows () =
  with_machine (fun _ m ->
      let a = Machine.alloc m (1 lsl 20) in
      Machine.poke m (a + (1 lsl 20) - 1) 7;
      check_int "grown and usable" 7 (Machine.peek m (a + (1 lsl 20) - 1)))

let test_timed_read_charges () =
  with_machine (fun _ m ->
      let a = Machine.alloc m 8 in
      Machine.poke m a 5;
      let v = Machine.read m a in
      check_int "value" 5 v;
      (* cold: TLB + random L2 miss *)
      check_float "charged" (30.0 +. 110.0) (Machine.pending_ns m);
      let _ = Machine.read m a in
      check_float "hit adds nothing" (30.0 +. 110.0) (Machine.pending_ns m))

let test_compute_charges () =
  with_machine (fun _ m ->
      Machine.compute m 12.5;
      check_float "pending" 12.5 (Machine.pending_ns m);
      check_float "busy" 12.5 (Machine.busy_ns m))

let test_sync_advances_clock () =
  with_machine (fun eng m ->
      Engine.spawn eng (fun () ->
          Machine.compute m 100.0;
          Machine.sync m;
          check_float "clock" 100.0 (Engine.now eng);
          check_float "pending drained" 0.0 (Machine.pending_ns m);
          check_float "busy kept" 100.0 (Machine.busy_ns m));
      Engine.run eng)

let test_sync_noop_when_idle () =
  with_machine (fun eng m ->
      Engine.spawn eng (fun () -> Machine.sync m);
      Engine.run eng;
      check_float "no time passes" 0.0 (Engine.now eng))

let test_dma_write_invalidates () =
  with_machine (fun _ m ->
      let a = Machine.alloc m 16 in
      (* Warm the region in cache. *)
      for i = 0 to 15 do
        Machine.poke m (a + i) i;
        ignore (Machine.read m (a + i))
      done;
      let warm = Machine.busy_ns m in
      ignore (Machine.read m a);
      check_float "warm read free" warm (Machine.busy_ns m);
      (* DMA overwrites the region: data visible, cache lines dropped. *)
      Machine.dma_write m a (Array.init 16 (fun i -> 100 + i));
      check_int "dma data visible" 107 (Machine.peek m (a + 7));
      let before = Machine.busy_ns m in
      check_int "timed read sees dma data" 100 (Machine.read m (a + 0));
      check_bool "read re-missed after dma" true (Machine.busy_ns m > before))

let test_two_machines_independent_caches () =
  let eng = Engine.create () in
  let m1 = Machine.create eng ~name:"a" p3 in
  let m2 = Machine.create eng ~name:"b" p3 in
  let a1 = Machine.alloc m1 8 and a2 = Machine.alloc m2 8 in
  ignore (Machine.read m1 a1);
  ignore (Machine.read m2 a2);
  (* Both cold-missed independently. *)
  check_float "same cold cost" (Machine.pending_ns m1) (Machine.pending_ns m2);
  let s1 = Cachesim.Hierarchy.stats (Machine.hierarchy m1) in
  check_int "m1 one access" 1 s1.Cachesim.Hierarchy.accesses

let test_write_then_read_visible () =
  with_machine (fun _ m ->
      let a = Machine.alloc m 8 in
      Machine.write m a 99;
      check_int "timed write visible" 99 (Machine.read m a);
      check_int "visible to peek" 99 (Machine.peek m a))

(* Words are unsigned 32-bit: the extremes and the largest op word a
   batch carries (a delete of the largest key) must survive every store
   path, and anything outside [0, 2^32) must be refused. *)
let word_extremes =
  [
    0;
    (1 lsl 32) - 1;
    Dispatch.Proto.op_word [||]
      (Workload.Mutation.Delete (Index.Key.sentinel - 1));
  ]

let test_word_roundtrip () =
  with_machine (fun _ m ->
      let a = Machine.alloc m 16 in
      List.iter
        (fun v ->
          Machine.poke m a v;
          check_int "poke/peek" v (Machine.peek m a);
          Machine.write m (a + 1) v;
          check_int "write/read" v (Machine.read m (a + 1));
          Machine.poke_array m (a + 2) [| v; v |];
          check_int "poke_array" v (Machine.peek m (a + 3));
          Machine.dma_write m (a + 4) [| v |];
          check_int "dma_write" v (Machine.read m (a + 4)))
        word_extremes)

let test_word_range_checked () =
  with_machine (fun _ m ->
      let a = Machine.alloc m 4 in
      Machine.poke m a 7;
      List.iter
        (fun v ->
          let raises name f =
            check_bool name true
              (match f () with
              | () -> false
              | exception Invalid_argument _ -> true)
          in
          raises "poke" (fun () -> Machine.poke m a v);
          raises "write" (fun () -> Machine.write m a v);
          raises "poke_array" (fun () -> Machine.poke_array m a [| 1; v |]);
          raises "dma_write" (fun () -> Machine.dma_write m a [| v |]);
          check_int "refused stores leave the word" 7 (Machine.peek m a))
        [ -1; 1 lsl 32 ])

let test_contents_survive_growth () =
  with_machine (fun _ m ->
      let a = Machine.alloc m 100 in
      for i = 0 to 99 do
        Machine.poke m (a + i) ((1 lsl 32) - 1 - i)
      done;
      let b = Machine.alloc m (1 lsl 20) in
      check_int "new words zeroed" 0 (Machine.peek m (b + (1 lsl 20) - 1));
      for i = 0 to 99 do
        check_int "kept" ((1 lsl 32) - 1 - i) (Machine.peek m (a + i))
      done)

let test_read_write_allocation_free () =
  (* Timed reads and writes allocate nothing, on an L2-miss-heavy
     stream as on hits. *)
  with_machine (fun _ m ->
      let words = 1 lsl 22 in
      let a = Machine.alloc m words in
      let n = 1 lsl 16 in
      let rng = Random.State.make [| 4242 |] in
      let addrs = Array.init (2 * n) (fun _ -> a + Random.State.int rng words) in
      let before = Gc.minor_words () in
      for i = 0 to n - 1 do
        Machine.write m addrs.(2 * i) (Machine.read m addrs.((2 * i) + 1))
      done;
      let allocated = Gc.minor_words () -. before in
      let s = Cachesim.Hierarchy.stats (Machine.hierarchy m) in
      check_bool "L2-miss heavy" true
        (s.Cachesim.Hierarchy.seq_misses + s.Cachesim.Hierarchy.rand_misses > n);
      check_float "minor words" 0.0 allocated)

let test_flush_caches_recolds () =
  with_machine (fun _ m ->
      let a = Machine.alloc m 8 in
      ignore (Machine.read m a);
      let cost1 = Machine.pending_ns m in
      Machine.flush_caches m;
      ignore (Machine.read m a);
      check_float "cold again" (2.0 *. cost1) (Machine.pending_ns m))

let test_sequential_scan_cheaper_than_random () =
  with_machine (fun _ m ->
      let n = 1 lsl 16 in
      let a = Machine.alloc m n in
      for i = 0 to n - 1 do
        ignore (Machine.read m (a + i))
      done;
      let seq_cost = Machine.busy_ns m in
      let g = Prng.Splitmix.create 1 in
      let m2 = Machine.create (Engine.create ()) ~name:"rand" p3 in
      (* The random working set must exceed the L2, or it would simply
         become cache-resident: use 16 MB. *)
      let big = 1 lsl 22 in
      let a2 = Machine.alloc m2 big in
      for _ = 0 to n - 1 do
        ignore (Machine.read m2 (a2 + Prng.Splitmix.int g big))
      done;
      let rand_cost = Machine.busy_ns m2 in
      (* The paper's measured ratio is 647/48 ~ 13x; the simulator should
         show sequential at least 5x cheaper on a 256 KB scan. *)
      check_bool "sequential much cheaper" true (seq_cost *. 5.0 < rand_cost))

(* ------------------------------------------------------------------ *)
(* Images *)

(* A small "index": two aligned blocks of distinct words, labelled as
   the drivers label theirs. *)
let build_sample m =
  let a =
    Machine.labelled m ~label:"partition" (fun () ->
        let a = Machine.alloc m 13 in
        for i = 0 to 12 do
          Machine.poke m (a + i) (1000 + i)
        done;
        a)
  in
  let b = Machine.labelled_alloc m ~label:"delta" 5 in
  Machine.poke_array m b [| 7; 8; 9; 10; 11 |];
  (a, b)

let words m = Array.init (Machine.words_allocated m) (Machine.peek m)

let test_image_equals_build () =
  with_machine (fun eng m ->
      let fresh_addrs = build_sample m in
      let img, addrs = Machine.build_image p3 build_sample in
      check_bool "same addresses" true (addrs = fresh_addrs);
      let l = Machine.create eng ~name:"l" p3 in
      Machine.load_image l img;
      check_int "brk" (Machine.words_allocated m) (Machine.words_allocated l);
      check_bool "words" true (words m = words l);
      check_float "loading is untimed" 0.0 (Machine.busy_ns l))

(* Machines loaded from one image share its pages until they write:
   neither sees the other's writes, and neither does one loaded later. *)
let test_image_copies_independent () =
  let img, (a, b) = Machine.build_image p3 build_sample in
  let load () =
    let l = Machine.create (Engine.create ()) ~name:"l" p3 in
    Machine.load_image l img;
    l
  in
  let l1 = load () and l2 = load () in
  let before = words l2 in
  Machine.write l1 a 42;
  Machine.poke l1 (a + 1) 43;
  Machine.poke_array l2 b [| 1; 2 |];
  Machine.dma_write l2 (a + 2) [| 44 |];
  check_int "written" 42 (Machine.peek l1 a);
  check_int "l1 sees not l2's poke_array" 7 (Machine.peek l1 b);
  check_int "l1 sees not l2's dma_write" 1002 (Machine.peek l1 (a + 2));
  check_int "l2 sees not l1's write" 1000 (Machine.peek l2 a);
  check_int "l2 sees not l1's poke" 1001 (Machine.peek l2 (a + 1));
  check_bool "image unchanged" true (words (load ()) = before)

(* A loaded machine holds none of the image's pages, nor of the words
   it allocates behind them, until it writes: then it owns exactly the
   pages its writes touched. *)
let test_loaded_owns_nothing_until_written () =
  let img, (a, _) = Machine.build_image p3 build_sample in
  with_machine (fun _ m ->
      Machine.load_image m img;
      check_int "loaded" 0 (Machine.owned_pages m);
      let big = Machine.alloc m 5000 in
      ignore (Machine.read m a);
      ignore (Machine.read m (big + 4999));
      check_bool "reads" true
        (Machine.peek_array m big 5000 = Array.make 5000 0);
      check_int "allocated and read" 0 (Machine.owned_pages m);
      Machine.write m a 1;
      Machine.poke m (a + 1) 2;
      check_int "image page written" 1 (Machine.owned_pages m);
      (* Two words of [big] on either side of the page 1/2 boundary. *)
      let lo = 2048 - 1 in
      Machine.poke_array m lo [| 3; 4 |];
      check_int "straddling poke_array" 3 (Machine.owned_pages m);
      Machine.dma_write m lo [| 5; 6 |];
      check_int "owned pages are written in place" 3 (Machine.owned_pages m);
      check_int "dma_write" 6 (Machine.peek m 2048))

let test_load_image_needs_empty_machine () =
  let img, _ = Machine.build_image p3 build_sample in
  with_machine (fun _ m ->
      ignore (Machine.alloc m 1);
      check_bool "non-empty raises" true
        (match Machine.load_image m img with
        | () -> false
        | exception Invalid_argument _ -> true));
  with_machine (fun _ m ->
      Machine.load_image m img;
      check_bool "second load raises" true
        (match Machine.load_image m img with
        | () -> false
        | exception Invalid_argument _ -> true));
  let p4 = Machine.create (Engine.create ()) Cachesim.Mem_params.pentium4 in
  check_bool "other parameters raise" true
    (match Machine.load_image p4 img with
    | () -> false
    | exception Invalid_argument _ -> true)

(* The paged store against a flat [int array] model: from an empty
   machine, or one loaded from the sample or an empty image, any
   sequence of allocations and stores leaves every word as the model has
   it, and unwritten words read 0.  Addresses and bulk lengths are taken
   modulo what is allocated when the step runs. *)
type op =
  | Alloc of int * bool  (** words, line-aligned *)
  | Write of int * int
  | Poke of int * int
  | Poke_array of int * int array
  | Dma of int * int array

let show_op = function
  | Alloc (n, al) ->
      Printf.sprintf "alloc %d%s" n (if al then "" else " packed")
  | Write (a, v) -> Printf.sprintf "write %d %d" a v
  | Poke (a, v) -> Printf.sprintf "poke %d %d" a v
  | Poke_array (a, vs) ->
      Printf.sprintf "poke_array %d [%d]" a (Array.length vs)
  | Dma (a, vs) -> Printf.sprintf "dma_write %d [%d]" a (Array.length vs)

let prop_paged_store_matches_model =
  let open QCheck.Gen in
  let word = oneof [ return 0; return 0xFFFF_FFFF; int_range 1 1_000_000 ] in
  let bulk = array_size (int_range 0 2100) word in
  let op =
    frequency
      [
        (2, map2 (fun n al -> Alloc (n, al)) (int_range 0 2500) bool);
        (3, map2 (fun a v -> Write (a, v)) nat word);
        (3, map2 (fun a v -> Poke (a, v)) nat word);
        (2, map2 (fun a vs -> Poke_array (a, vs)) nat bulk);
        (2, map2 (fun a vs -> Dma (a, vs)) nat bulk);
      ]
  in
  let case = pair (int_range 0 2) (list_size (int_range 1 25) op) in
  let print (start, ops) =
    Printf.sprintf "start=%d: %s" start
      (String.concat "; " (List.map show_op ops))
  in
  let images =
    [|
      None;
      Some (fst (Machine.build_image p3 build_sample));
      Some (fst (Machine.build_image p3 ignore));
    |]
  in
  QCheck.Test.make ~count:200 ~name:"paged store matches a flat model"
    (QCheck.make ~print case) (fun (start, ops) ->
      with_machine (fun _ m ->
          Option.iter (Machine.load_image m) images.(start);
          let model = Array.make (1 lsl 16) 0 in
          Array.iteri (fun i v -> model.(i) <- v) (words m);
          let brk = ref (Machine.words_allocated m) in
          let ok = ref true in
          let store a vs =
            Array.iteri (fun i v -> model.(a + i) <- v) vs;
            Array.iteri
              (fun i v -> if Machine.peek m (a + i) <> v then ok := false)
              vs
          in
          let bulk f a vs =
            if !brk > 0 then begin
              let a = a mod !brk in
              let vs = Array.sub vs 0 (min (Array.length vs) (!brk - a)) in
              f m a vs;
              store a vs
            end
          in
          List.iter
            (function
              | Alloc (n, aligned) ->
                  let align = if aligned then 8 else 1 in
                  let base = (!brk + align - 1) / align * align in
                  if Machine.alloc m ~align_words:align n <> base then
                    ok := false;
                  brk := base + n
              | Write (a, v) ->
                  bulk (fun m a vs -> Machine.write m a vs.(0)) a [| v |]
              | Poke (a, v) ->
                  bulk (fun m a vs -> Machine.poke m a vs.(0)) a [| v |]
              | Poke_array (a, vs) -> bulk Machine.poke_array a vs
              | Dma (a, vs) -> bulk Machine.dma_write a vs)
            ops;
          !ok
          && Machine.words_allocated m = !brk
          && words m = Array.sub model 0 !brk
          && Machine.peek_array m 0 !brk = Array.sub model 0 !brk))

let scope_regions sc name =
  match
    List.find_opt
      (fun n -> Obs.Cachescope.node_name n = name)
      (Obs.Cachescope.nodes sc)
  with
  | Some n -> Obs.Cachescope.regions n
  | None -> Alcotest.failf "no scope node %s" name

let test_image_scope () =
  let sc = Obs.Cachescope.create () in
  Obs.Cachescope.with_recording sc (fun () ->
      let img, _ = Machine.build_image p3 build_sample in
      check_int "building adds no scope node" 0
        (List.length (Obs.Cachescope.nodes sc));
      let eng = Engine.create () in
      let fresh = Machine.create eng ~name:"fresh" p3 in
      ignore (build_sample fresh);
      let loaded = Machine.create eng ~name:"loaded" p3 in
      Machine.load_image loaded img;
      check_int "one node per machine" 2 (List.length (Obs.Cachescope.nodes sc));
      check_bool "labels replayed in order" true
        (scope_regions sc "fresh" = scope_regions sc "loaded");
      check_int "two labels" 2 (List.length (scope_regions sc "loaded")))

(* A descriptor built on the private machine keeps none of its memory:
   the store went to the image. *)
let test_image_template_released () =
  let img, (template, (a, _)) =
    Machine.build_image p3 (fun m -> (m, build_sample m))
  in
  check_int "template emptied" 0 (Machine.words_allocated template);
  check_int "template store released" 0 (Machine.owned_pages template);
  check_bool "template access raises" true
    (match Machine.peek template a with
    | _ -> false
    | exception Invalid_argument _ -> true);
  with_machine (fun _ m ->
      Machine.load_image m img;
      check_int "image words" 1000 (Machine.peek m a);
      check_int "image pages shared" 0 (Machine.owned_pages m))

let test_release_store () =
  with_machine (fun _ m ->
      let a = Machine.alloc m 100 in
      Machine.poke m a 5;
      ignore (Machine.read m a);
      Machine.compute m 3.0;
      let busy = Machine.busy_ns m in
      check_int "one page written" 1 (Machine.owned_pages m);
      Machine.release_store m;
      check_int "store released" 0 (Machine.owned_pages m);
      check_int "allocation mark kept" 100 (Machine.words_allocated m);
      check_float "busy kept" busy (Machine.busy_ns m);
      List.iter
        (fun (what, access) ->
          check_bool what true
            (match access () with
            | () -> false
            | exception Invalid_argument _ -> true))
        [
          ("peek raises", fun () -> ignore (Machine.peek m a));
          ("read raises", fun () -> ignore (Machine.read m (a + 99)));
          ("poke raises", fun () -> Machine.poke m a 1);
          ("write raises", fun () -> Machine.write m a 1);
        ])

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "machine"
    [
      ( "memory",
        [
          tc "alloc alignment" `Quick test_alloc_alignment;
          tc "poke/peek" `Quick test_poke_peek_roundtrip;
          tc "poke_array" `Quick test_poke_array;
          tc "peek_array" `Quick test_peek_array;
          tc "bounds" `Quick test_bounds_checked;
          tc "growth" `Quick test_memory_grows;
          tc "write/read" `Quick test_write_then_read_visible;
          tc "word round-trip" `Quick test_word_roundtrip;
          tc "word range" `Quick test_word_range_checked;
          tc "growth keeps contents" `Quick test_contents_survive_growth;
        ] );
      ( "allocation",
        [
          tc "read/write allocate nothing" `Quick
            test_read_write_allocation_free;
        ] );
      ( "timing",
        [
          tc "read charges" `Quick test_timed_read_charges;
          tc "compute charges" `Quick test_compute_charges;
          tc "sync advances clock" `Quick test_sync_advances_clock;
          tc "sync idle noop" `Quick test_sync_noop_when_idle;
          tc "flush recolds" `Quick test_flush_caches_recolds;
          tc "seq vs random" `Quick test_sequential_scan_cheaper_than_random;
        ] );
      ( "dma",
        [ tc "dma_write invalidates" `Quick test_dma_write_invalidates ] );
      ( "isolation",
        [ tc "independent caches" `Quick test_two_machines_independent_caches ] );
      ( "image",
        [
          tc "load equals build" `Quick test_image_equals_build;
          tc "copies independent" `Quick test_image_copies_independent;
          tc "needs empty machine" `Quick test_load_image_needs_empty_machine;
          tc "loaded owns nothing until written" `Quick
            test_loaded_owns_nothing_until_written;
          tc "scope" `Quick test_image_scope;
          tc "template released" `Quick test_image_template_released;
          tc "release store" `Quick test_release_store;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_paged_store_matches_model ]
      );
    ]
