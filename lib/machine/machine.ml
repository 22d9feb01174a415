type t = {
  eng : Simcore.Engine.t;
  node_name : string;
  p : Cachesim.Mem_params.t;
  hier : Cachesim.Hierarchy.t;
  mutable mem : Bytes.t; (* 4 bytes per word, native byte order *)
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
  store : Bytes.t; (* exactly [img_brk] words *)
  img_brk : int;
  regions : region list; (* labelling order *)
}

(* Words are unsigned 32-bit values held 4 bytes apiece in a [Bytes.t]:
   half the host footprint of an [int array], and the GC never scans
   it.  The unchecked primitives below are used only after [check] has
   bounded the word address by [limit <= brk], and [ensure] keeps
   [4 * brk <= Bytes.length mem].  Applied directly, the [int32] they
   traffic in stays unboxed, so reads and writes allocate nothing. *)
external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

let word_max = 0xFFFF_FFFF
let get_word mem a = Int32.to_int (get32u mem (a lsl 2)) land word_max
let set_word mem a v = set32u mem (a lsl 2) (Int32.of_int v)

(* [ensure] doubles on demand (from this floor when the store is empty,
   as a released or loaded one can be), so this only sets the floor; a
   small floor keeps the per-run zeroing and the host cache footprint of
   idle machines proportional to what a run actually allocates.  A node
   whose layout is known up front loads it with {!load_image}, sized
   once, so doubling is left to growth during a run. *)
let initial_words = 1 lsl 12

let create eng ?(name = "node") (p : Cachesim.Mem_params.t) =
  let hier = Cachesim.Hierarchy.create p in
  (* A machine built while a cache scope is ambiently recording becomes
     one of its nodes; otherwise the hierarchy stays unscoped and the
     per-access hooks are a [None] check. *)
  (match Obs.Cachescope.current () with
  | Some sc -> ignore (Cachesim.Hierarchy.attach_scope hier sc ~node_name:name)
  | None -> ());
  {
    eng;
    node_name = name;
    p;
    hier;
    mem = Bytes.make (4 * initial_words) '\000';
    brk = 0;
    limit = 0;
    acc = [| 0.0; 0.0 |];
    prof = Obs.Profile.current ();
    tracer = Simcore.Trace.current ();
    labels = None;
  }

let engine t = t.eng
let name t = t.node_name
let params t = t.p
let hierarchy t = t.hier
let words_allocated t = t.brk

let ensure t limit =
  let cap = Bytes.length t.mem / 4 in
  if limit > cap then begin
    let cap' = ref (max cap initial_words) in
    while limit > !cap' do
      cap' := !cap' * 2
    done;
    let mem' = Bytes.make (4 * !cap') '\000' in
    Bytes.blit t.mem 0 mem' 0 (4 * cap);
    t.mem <- mem'
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
  ensure t t.brk;
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
  get_word t.mem a

let write t a v =
  check t a;
  check_value t v;
  Cachesim.Hierarchy.access_into t.hier ~addr:(a * t.p.word_bytes) ~write:true
    ~charge:t.acc;
  set_word t.mem a v

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
  get_word t.mem a

let poke t a v =
  check t a;
  check_value t v;
  set_word t.mem a v

let poke_array t a vs =
  if Array.length vs > 0 then begin
    check t a;
    check t (a + Array.length vs - 1);
    Array.iter (check_value t) vs;
    for i = 0 to Array.length vs - 1 do
      set_word t.mem (a + i) (Array.unsafe_get vs i)
    done
  end

let peek_array t a n =
  if n < 0 then invalid_arg "Machine.peek_array: negative length";
  if n = 0 then [||]
  else begin
    check t a;
    check t (a + n - 1);
    let mem = t.mem in
    let vs = Array.make n 0 in
    for i = 0 to n - 1 do
      Array.unsafe_set vs i (get_word mem (a + i))
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
  t.mem <- Bytes.empty;
  t.limit <- 0

(* The private machine an image is built on: its own engine, no
   ambient recorder (so no scope node, profile or trace sees it), and a
   one-set hierarchy, since index construction only pokes.  Its store
   goes to the image and is then dropped, so the descriptors built on it
   keep nothing of its memory alive. *)
let build_image (p : Cachesim.Mem_params.t) build =
  let t =
    {
      eng = Simcore.Engine.create ();
      node_name = "image";
      p;
      hier =
        Cachesim.Hierarchy.create
          {
            p with
            l1_size = p.l1_line * p.l1_ways;
            l2_size = p.l2_line * p.l2_ways;
            tlb_entries = 0;
          };
      mem = Bytes.empty;
      brk = 0;
      limit = 0;
      acc = [| 0.0; 0.0 |];
      prof = None;
      tracer = None;
      labels = Some [];
    }
  in
  let x = build t in
  let img =
    {
      img_params = p;
      store = Bytes.sub t.mem 0 (4 * t.brk);
      img_brk = t.brk;
      regions = List.rev (Option.get t.labels);
    }
  in
  release_store t;
  t.brk <- 0;
  t.labels <- None;
  (img, x)

let load_image t ?(then_alloc = []) img =
  if t.brk <> 0 then
    invalid_arg
      (Printf.sprintf "Machine.load_image: %s is not empty" t.node_name);
  if img.img_params != t.p && img.img_params <> t.p then
    invalid_arg "Machine.load_image: image built for other parameters";
  let cap =
    List.fold_left
      (fun brk n ->
        if n < 0 then invalid_arg "Machine.load_image: negative size";
        align_up brk (line_words t) + n)
      img.img_brk then_alloc
  in
  let mem = Bytes.create (4 * cap) in
  Bytes.blit img.store 0 mem 0 (4 * img.img_brk);
  Bytes.fill mem (4 * img.img_brk) (4 * (cap - img.img_brk)) '\000';
  t.mem <- mem;
  t.brk <- img.img_brk;
  t.limit <- t.brk;
  List.iter
    (fun r -> label_region t ~label:r.label ~base:r.base ~words:r.words)
    img.regions

let capacity_words t = Bytes.length t.mem / 4

let sample_residency t =
  match Cachesim.Hierarchy.scope t.hier with
  | Some node -> Obs.Cachescope.sample node ~at:(Simcore.Engine.now t.eng)
  | None -> ()

let record_metrics t reg =
  let labels = [ ("node", t.node_name) ] in
  Obs.Metrics.incr_f reg ~labels "node_busy_ns" t.acc.(1);
  Obs.Metrics.gauge reg ~labels "node_words_allocated" (float_of_int t.brk);
  Cachesim.Hierarchy.record_metrics t.hier ~labels reg
