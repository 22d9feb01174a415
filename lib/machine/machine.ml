type t = {
  eng : Simcore.Engine.t;
  node_name : string;
  p : Cachesim.Mem_params.t;
  hier : Cachesim.Hierarchy.t;
  mutable mem : Bytes.t; (* 4 bytes per word, native byte order *)
  mutable brk : int; (* next free word *)
  acc : float array; (* [|pending; busy|] — float-array stores keep the
                        per-access charge unboxed (mutable float fields
                        in this mixed record would box every addend) *)
  prof : Obs.Profile.t option; (* ambient recorders frozen at creation — *)
  tracer : Simcore.Trace.t option; (* installed around whole runs, so the
                                      hot path skips the DLS lookups *)
}

(* Words are unsigned 32-bit values held 4 bytes apiece in a [Bytes.t]:
   half the host footprint of an [int array], and the GC never scans
   it.  The unchecked primitives below are used only after [check] has
   bounded the word address by [brk], and [ensure] keeps
   [4 * brk <= Bytes.length mem].  Applied directly, the [int32] they
   traffic in stays unboxed, so reads and writes allocate nothing. *)
external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

let word_max = 0xFFFF_FFFF
let get_word mem a = Int32.to_int (get32u mem (a lsl 2)) land word_max
let set_word mem a v = set32u mem (a lsl 2) (Int32.of_int v)

(* [ensure] doubles on demand, so this only sets the floor; a small
   floor keeps the per-run zeroing and the host cache footprint of idle
   machines proportional to what a run actually allocates. *)
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
    acc = [| 0.0; 0.0 |];
    prof = Obs.Profile.current ();
    tracer = Simcore.Trace.current ();
  }

let engine t = t.eng
let name t = t.node_name
let params t = t.p
let hierarchy t = t.hier
let words_allocated t = t.brk

let ensure t limit =
  let cap = Bytes.length t.mem / 4 in
  if limit > cap then begin
    let cap' = ref cap in
    while limit > !cap' do
      cap' := !cap' * 2
    done;
    let mem' = Bytes.make (4 * !cap') '\000' in
    Bytes.blit t.mem 0 mem' 0 (4 * cap);
    t.mem <- mem'
  end

let alloc t ?align_words n =
  if n < 0 then invalid_arg "Machine.alloc: negative size";
  let align =
    match align_words with
    | Some a ->
        if a < 1 then invalid_arg "Machine.alloc: bad alignment";
        a
    | None -> t.p.l2_line / t.p.word_bytes
  in
  let base = (t.brk + align - 1) / align * align in
  t.brk <- base + n;
  ensure t t.brk;
  base

let charge t ns =
  Array.unsafe_set t.acc 0 (Array.unsafe_get t.acc 0 +. ns);
  Array.unsafe_set t.acc 1 (Array.unsafe_get t.acc 1 +. ns)

let check t a =
  if a < 0 || a >= t.brk then
    invalid_arg
      (Printf.sprintf "Machine.%s: word address %d outside [0,%d)" t.node_name
         a t.brk)

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

let dma_write t a data =
  poke_array t a data;
  Cachesim.Hierarchy.invalidate_range t.hier ~addr:(a * t.p.word_bytes)
    ~bytes:(Array.length data * t.p.word_bytes)

let flush_caches t = Cachesim.Hierarchy.flush t.hier

let label_region t ~label ~base ~words =
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

let sample_residency t =
  match Cachesim.Hierarchy.scope t.hier with
  | Some node -> Obs.Cachescope.sample node ~at:(Simcore.Engine.now t.eng)
  | None -> ()

let record_metrics t reg =
  let labels = [ ("node", t.node_name) ] in
  Obs.Metrics.incr_f reg ~labels "node_busy_ns" t.acc.(1);
  Obs.Metrics.gauge reg ~labels "node_words_allocated" (float_of_int t.brk);
  Cachesim.Hierarchy.record_metrics t.hier ~labels reg
