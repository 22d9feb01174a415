type t = {
  eng : Simcore.Engine.t;
  node_name : string;
  p : Cachesim.Mem_params.t;
  hier : Cachesim.Hierarchy.t;
  mutable pages : Bytes.t array; (* 4 KiB host pages covering [brk] *)
  mutable owned : Bytes.t; (* per page: ['\001'] once this machine's copy *)
  mutable brk : int; (* next free word *)
  mutable limit : int;
      (* words an access may touch: [brk], or 0 once the store is
         released *)
  acc : float array; (* [|pending; busy|] — float-array stores keep the
                        per-access charge unboxed (mutable float fields
                        in this mixed record would box every addend) *)
  prof : Obs.Profile.t option; (* ambient recorders frozen at creation — *)
  tracer : Simcore.Trace.t option; (* installed around whole runs, so the
                                      hot path skips the DLS lookups *)
  mutable labels : region list option;
      (* [Some], newest first, only while the machine builds an image *)
}

and region = { label : string; base : int; words : int }

type image = {
  img_params : Cachesim.Mem_params.t;
  img_pages : Bytes.t array; (* covering [img_brk]; owned by no machine *)
  img_brk : int;
  regions : region list; (* labelling order *)
}

(* Words are unsigned 32-bit values, 4 bytes apiece in 4 KiB pages the
   GC never scans, each first the shared [zero_page].  A machine copies
   a page on its first write to it and marks it owned, since no physical
   test tells an image's pages from its own.  The unchecked primitives
   are used only after [check] bounds the address by [limit <= brk] and
   [alloc] covers [brk]; applied directly, their [int32] stays unboxed. *)
external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

let word_max = 0xFFFF_FFFF
let page_bits = 10 (* 1,024 words *)
let page_mask = (1 lsl page_bits) - 1
let zero_page = Bytes.make (4 lsl page_bits) '\000'

let[@inline] get_word t a =
  let pg = Array.unsafe_get t.pages (a lsr page_bits) in
  Int32.to_int (get32u pg ((a land page_mask) lsl 2)) land word_max

let copy_page t i =
  t.pages.(i) <- Bytes.copy t.pages.(i);
  Bytes.set t.owned i '\001'

let[@inline] set_word t a v =
  let i = a lsr page_bits in
  if Bytes.unsafe_get t.owned i = '\000' then copy_page t i;
  set32u (Array.unsafe_get t.pages i) ((a land page_mask) lsl 2)
    (Int32.of_int v)

let make eng name p hier ~prof ~tracer ~labels =
  {
    eng;
    node_name = name;
    p;
    hier;
    pages = [||];
    owned = Bytes.empty;
    brk = 0;
    limit = 0;
    acc = [| 0.0; 0.0 |];
    prof;
    tracer;
    labels;
  }

let create eng ?(name = "node") (p : Cachesim.Mem_params.t) =
  let hier = Cachesim.Hierarchy.create p in
  (* A machine built while a cache scope is ambiently recording becomes
     one of its nodes; otherwise the hierarchy stays unscoped and the
     per-access hooks are a [None] check. *)
  (match Obs.Cachescope.current () with
  | Some sc -> ignore (Cachesim.Hierarchy.attach_scope hier sc ~node_name:name)
  | None -> ());
  make eng name p hier ~prof:(Obs.Profile.current ())
    ~tracer:(Simcore.Trace.current ()) ~labels:None

let name t = t.node_name
let params t = t.p
let hierarchy t = t.hier
let words_allocated t = t.brk

(* Only the page table grows, at least doubling, with zero pages. *)
let cover t words =
  let n = Array.length t.pages in
  let need = (words + page_mask) lsr page_bits in
  if need > n then begin
    let extra = max (need - n) n in
    t.pages <- Array.append t.pages (Array.make extra zero_page);
    t.owned <- Bytes.cat t.owned (Bytes.make extra '\000')
  end

let line_words t = t.p.l2_line / t.p.word_bytes
let align_up a align = (a + align - 1) / align * align

let alloc t ?align_words n =
  if n < 0 then invalid_arg "Machine.alloc: negative size";
  let align =
    match align_words with
    | Some a ->
        if a < 1 then invalid_arg "Machine.alloc: bad alignment";
        a
    | None -> line_words t
  in
  let base = align_up t.brk align in
  t.brk <- base + n;
  t.limit <- t.brk;
  cover t t.brk;
  base

let charge t ns =
  Array.unsafe_set t.acc 0 (Array.unsafe_get t.acc 0 +. ns);
  Array.unsafe_set t.acc 1 (Array.unsafe_get t.acc 1 +. ns)

let check t a =
  if a < 0 || a >= t.limit then
    invalid_arg
      (Printf.sprintf "Machine.%s: word address %d outside [0,%d)" t.node_name
         a t.limit)

let check_value t v =
  if v land lnot word_max <> 0 then
    invalid_arg
      (Printf.sprintf "Machine.%s: value %d outside [0,2^32)" t.node_name v)

let read t a =
  check t a;
  Cachesim.Hierarchy.access_into t.hier ~addr:(a * t.p.word_bytes)
    ~write:false ~charge:t.acc;
  get_word t a

let write t a v =
  check t a;
  check_value t v;
  Cachesim.Hierarchy.access_into t.hier ~addr:(a * t.p.word_bytes) ~write:true
    ~charge:t.acc;
  set_word t a v

let set_phase t phase = Cachesim.Hierarchy.set_phase t.hier phase
let phase t = Cachesim.Hierarchy.phase t.hier

let compute t ns =
  if ns < 0.0 then invalid_arg "Machine.compute: negative cost";
  (match t.prof with
  | Some p ->
      Obs.Profile.charge p ~path:[ Cachesim.Hierarchy.phase t.hier; "cpu" ] ns
  | None -> ());
  charge t ns

let sync t =
  let dt = Array.unsafe_get t.acc 0 in
  if dt > 0.0 then begin
    Array.unsafe_set t.acc 0 0.0;
    (match t.tracer with
    | Some tr ->
        let now = Simcore.Engine.now t.eng in
        Simcore.Trace.add tr ~lane:t.node_name ~label:"busy" ~t0:now
          ~t1:(now +. dt)
    | None -> ());
    Simcore.Engine.delay t.eng dt
  end

let pending_ns t = t.acc.(0)
let busy_ns t = t.acc.(1)

let peek t a =
  check t a;
  get_word t a

let poke t a v =
  check t a;
  check_value t v;
  set_word t a v

let poke_array t a vs =
  if Array.length vs > 0 then begin
    check t a;
    check t (a + Array.length vs - 1);
    Array.iter (check_value t) vs;
    for i = 0 to Array.length vs - 1 do
      set_word t (a + i) (Array.unsafe_get vs i)
    done
  end

let peek_array t a n =
  if n < 0 then invalid_arg "Machine.peek_array: negative length";
  if n = 0 then [||]
  else begin
    check t a;
    check t (a + n - 1);
    let vs = Array.make n 0 in
    for i = 0 to n - 1 do
      Array.unsafe_set vs i (get_word t (a + i))
    done;
    vs
  end

let dma_write t a data =
  poke_array t a data;
  Cachesim.Hierarchy.invalidate_range t.hier ~addr:(a * t.p.word_bytes)
    ~bytes:(Array.length data * t.p.word_bytes)

let flush_caches t = Cachesim.Hierarchy.flush t.hier

let label_region t ~label ~base ~words =
  (match t.labels with
  | Some rs -> t.labels <- Some ({ label; base; words } :: rs)
  | None -> ());
  match Cachesim.Hierarchy.scope t.hier with
  | Some node ->
      Obs.Cachescope.label_region node ~label ~lo:(base * t.p.word_bytes)
        ~hi:((base + words) * t.p.word_bytes)
  | None -> ()

let labelled t ~label build =
  let base = t.brk in
  let x = build () in
  label_region t ~label ~base ~words:(t.brk - base);
  x

let labelled_alloc t ?align_words ~label n =
  let base = alloc t ?align_words n in
  label_region t ~label ~base ~words:n;
  base

let release_store t =
  t.pages <- [||];
  t.owned <- Bytes.empty;
  t.limit <- 0

let owned_pages t =
  Bytes.fold_left (fun n c -> if c = '\000' then n else n + 1) 0 t.owned

(* The private machine an image is built on: its own engine, no
   ambient recorder (so no scope node, profile or trace sees it), and a
   one-set hierarchy, since index construction only pokes.  Its pages
   go to the image, frozen (it drops its page table, so nothing writes
   them again), and the descriptors built on it keep none alive. *)
let build_image (p : Cachesim.Mem_params.t) build =
  let t =
    make (Simcore.Engine.create ()) "image" p
      (Cachesim.Hierarchy.create
         {
           p with
           l1_size = p.l1_line * p.l1_ways;
           l2_size = p.l2_line * p.l2_ways;
           tlb_entries = 0;
         })
      ~prof:None ~tracer:None ~labels:(Some [])
  in
  let x = build t in
  let img =
    {
      img_params = p;
      img_pages = Array.sub t.pages 0 ((t.brk + page_mask) lsr page_bits);
      img_brk = t.brk;
      regions = List.rev (Option.get t.labels);
    }
  in
  release_store t;
  t.brk <- 0;
  t.labels <- None;
  (img, x)

let load_image t img =
  if t.brk <> 0 then
    invalid_arg
      (Printf.sprintf "Machine.load_image: %s is not empty" t.node_name);
  if img.img_params != t.p && img.img_params <> t.p then
    invalid_arg "Machine.load_image: image built for other parameters";
  t.pages <- Array.copy img.img_pages;
  t.owned <- Bytes.make (Array.length img.img_pages) '\000';
  t.brk <- img.img_brk;
  t.limit <- t.brk;
  List.iter
    (fun r -> label_region t ~label:r.label ~base:r.base ~words:r.words)
    img.regions

let sample_residency t =
  match Cachesim.Hierarchy.scope t.hier with
  | Some node -> Obs.Cachescope.sample node ~at:(Simcore.Engine.now t.eng)
  | None -> ()

let record_metrics t reg =
  let labels = [ ("node", t.node_name) ] in
  Obs.Metrics.incr_f reg ~labels "node_busy_ns" t.acc.(1);
  Obs.Metrics.gauge reg ~labels "node_words_allocated" (float_of_int t.brk);
  Cachesim.Hierarchy.record_metrics t.hier ~labels reg
