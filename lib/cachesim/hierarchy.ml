type t = {
  p : Mem_params.t;
  l1c : Cache.t;
  l2c : Cache.t;
  tlb : Tlb.t option;
  pf : Prefetcher.t;
  repeat_shift : int;
      (* log2 of the smaller of an L1 line and a page: two addresses
         equal after this shift share both their L1 line and their page *)
  mutable last : int;
      (* [addr lsr repeat_shift] of the previous fast-path access, -1 =
         none: the repeat-line memo of [access_fast] *)
  mutable accesses : int;
  mutable l1_hits : int;
  mutable l2_hits : int;
  mutable seq_misses : int;
  mutable rand_misses : int;
  mutable tlb_misses : int;
  mutable writebacks : int;
  acc : float array; (* [|cost_ns|] — float-array store keeps the hot
                        accumulation unboxed (a mutable float field in
                        this mixed record would box every addend) *)
  costs : float array;
      (* [|l1_hit; l2_hit; ram_random; tlb_miss; ram_line|] — the
         [Mem_params] addends, copied into one flat array at creation:
         float fields of that mixed record are boxed pointers, so
         reading them per access touches five scattered heap words
         where this array is one hot line. *)
  scratch : float array; (* per-access cost accumulator of [access_fast] *)
  sink : float array; (* discarded charge target for the compat {!access} *)
  prof : Obs.Profile.t option;
      (* Ambient profiler frozen at creation: recorders are installed
         around a whole run, including machine construction, so one
         [None] here proves no access of this hierarchy is profiled and
         the fast path can skip the per-access ambient lookup. *)
  mutable phase : string;
  mutable scope : Obs.Cachescope.node option;
}

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let create (p : Mem_params.t) =
  let l1c =
    Cache.create ~name:"L1" ~size_bytes:p.l1_size ~line_bytes:p.l1_line
      ~ways:p.l1_ways ()
  in
  let l2c =
    Cache.create ~name:"L2" ~size_bytes:p.l2_size ~line_bytes:p.l2_line
      ~ways:p.l2_ways ()
  in
  let tlb =
    if p.tlb_entries > 0 then
      Some (Tlb.create ~entries:p.tlb_entries ~page_bytes:p.page_bytes)
    else None
  in
  {
    p;
    l1c;
    l2c;
    tlb;
    pf = Prefetcher.create ();
    repeat_shift = log2 (min p.l1_line p.page_bytes);
    last = -1;
    accesses = 0;
    l1_hits = 0;
    l2_hits = 0;
    seq_misses = 0;
    rand_misses = 0;
    tlb_misses = 0;
    writebacks = 0;
    acc = [| 0.0 |];
    costs =
      [|
        p.l1_hit_ns;
        p.b1_penalty_ns;
        p.b2_penalty_ns;
        p.tlb_penalty_ns;
        float_of_int p.l2_line /. p.mem_seq_bw;
      |];
    scratch = [| 0.0 |];
    sink = [| 0.0; 0.0 |];
    prof = Obs.Profile.current ();
    phase = "mem";
    scope = None;
  }

let params t = t.p
let set_phase t phase = t.phase <- phase
let phase t = t.phase

(* ------------------------------------------------------------------ *)
(* Cache microscope.  The scope levels mirror the demand hierarchy (L1
   then L2; the TLB is not a data cache and stays out).  When no scope
   is attached every hook below is one [None] match. *)

let level_specs t =
  let spec (c : Cache.t) =
    {
      Obs.Cachescope.name = Cache.name c;
      lines = Cache.lines c;
      sets = Cache.sets c;
      line_shift = log2 (Cache.line_bytes c);
    }
  in
  [ spec t.l1c; spec t.l2c ]

let attach_scope t scope ~node_name =
  let node = Obs.Cachescope.add_node scope ~name:node_name (level_specs t) in
  t.scope <- Some node;
  t.last <- -1;
  node

let scope t = t.scope

let scoped_fill t ~level (c : Cache.t) ~write =
  (* [c]'s probe location was cached by the missing probe that led
     here, so the fill does not recompute line/base. *)
  let wrote_back = Cache.fill_probed c ~write in
  (match t.scope with
  | Some node ->
      Obs.Cachescope.note_fill node ~level ~line:(Cache.probed_line c)
        ~victim:(Cache.last_victim c)
  | None -> ());
  wrote_back

(* Instrumented access path: identical classification to [access_fast]
   below, plus the profiler attribution and cache-scope hooks.  Taken
   whenever a profiler was ambient at creation or a scope is attached. *)
let access_slow t ~addr ~write =
  t.accesses <- t.accesses + 1;
  (* Every cost addend below is also attributed to the ambient profiler
     (if one is installed) under (current phase, component), so the
     profile's memory components sum to exactly what this access
     returns. *)
  let prof = t.prof in
  let attr component c =
    match prof with
    | Some p -> Obs.Profile.charge p ~path:[ t.phase; component ] c
    | None -> ()
  in
  let cost = ref 0.0 in
  (match t.tlb with
  | Some tlb ->
      if not (Tlb.access tlb ~addr) then begin
        t.tlb_misses <- t.tlb_misses + 1;
        cost := !cost +. t.p.tlb_penalty_ns;
        attr "tlb_miss" t.p.tlb_penalty_ns
      end
  | None -> ());
  let l1_hit = Cache.probe t.l1c ~addr ~write in
  (* The scope sees the demand stream each level really serves: every
     access for L1, only L1 misses for L2. *)
  (match t.scope with
  | Some node ->
      Obs.Cachescope.note_access node ~level:0 ~phase:t.phase ~addr
        ~hit:l1_hit
  | None -> ());
  if l1_hit then begin
    t.l1_hits <- t.l1_hits + 1;
    cost := !cost +. t.p.l1_hit_ns;
    attr "l1_hit" t.p.l1_hit_ns
  end
  else begin
    let l2_hit = Cache.probe t.l2c ~addr ~write in
    (match t.scope with
    | Some node ->
        Obs.Cachescope.note_access node ~level:1 ~phase:t.phase ~addr
          ~hit:l2_hit
    | None -> ());
    if l2_hit then begin
      t.l2_hits <- t.l2_hits + 1;
      cost := !cost +. t.p.b1_penalty_ns;
      attr "l2_hit" t.p.b1_penalty_ns;
      ignore (scoped_fill t ~level:0 t.l1c ~write)
    end
    else begin
      let line = Cache.probed_line t.l2c in
      let line_cost = float_of_int t.p.l2_line /. t.p.mem_seq_bw in
      if Prefetcher.note_miss t.pf ~line then begin
        t.seq_misses <- t.seq_misses + 1;
        cost := !cost +. line_cost;
        attr "ram_sequential" line_cost
      end
      else begin
        t.rand_misses <- t.rand_misses + 1;
        cost := !cost +. t.p.b2_penalty_ns;
        attr "ram_random" t.p.b2_penalty_ns
      end;
      if scoped_fill t ~level:1 t.l2c ~write then begin
        t.writebacks <- t.writebacks + 1;
        cost := !cost +. line_cost;
        attr "ram_writeback" line_cost
      end;
      ignore (scoped_fill t ~level:0 t.l1c ~write)
    end
  end;
  Array.unsafe_set t.acc 0 (Array.unsafe_get t.acc 0 +. !cost);
  !cost

(* Demand path with no profiler and no scope: same classification,
   counter updates and cost arithmetic (same addends, same order) as
   [access_slow], but no closure, no [ref], no ambient lookup — the
   cost accumulates in the [scratch] float-array slot (replicating the
   slow path's [cost := !cost +. x] sequence add for add) and lands in
   [t.acc] and the caller's [charge] pair.  Keeping every intermediate
   in float arrays rather than let-bound branch joins guarantees no
   boxing on this path.

   Repeat-line memo: when this access falls in the L1 line (and so the
   page) of the previous one, that line and page already hold the
   newest LRU position in L1 and the TLB, the prefetcher — which acts
   only on L2 misses — is not involved, so the full path would find a
   TLB hit and an L1 hit and change nothing else.  The repeat counts
   exactly that, sets the dirty bit on a write, and adds the L1-hit
   addend.  Anything else that changes L1 or the TLB ([flush],
   [invalidate_range]) or routes accesses to [access_slow]
   ([attach_scope]) clears the memo. *)
let access_fast t ~addr ~write ~charge =
  t.accesses <- t.accesses + 1;
  let s = t.scratch in
  let costs = t.costs in
  Array.unsafe_set s 0 0.0;
  let key = addr lsr t.repeat_shift in
  if key = t.last then begin
    (match t.tlb with None -> () | Some tlb -> Tlb.rehit tlb);
    Cache.rehit t.l1c ~write;
    t.l1_hits <- t.l1_hits + 1;
    Array.unsafe_set s 0 (Array.unsafe_get s 0 +. Array.unsafe_get costs 0)
  end
  else begin
    t.last <- key;
    (match t.tlb with
    | None -> ()
    | Some tlb ->
        if not (Tlb.access tlb ~addr) then begin
          t.tlb_misses <- t.tlb_misses + 1;
          Array.unsafe_set s 0
            (Array.unsafe_get s 0 +. Array.unsafe_get costs 3)
        end);
    if Cache.probe t.l1c ~addr ~write then begin
      t.l1_hits <- t.l1_hits + 1;
      Array.unsafe_set s 0 (Array.unsafe_get s 0 +. Array.unsafe_get costs 0)
    end
    else if Cache.probe t.l2c ~addr ~write then begin
      t.l2_hits <- t.l2_hits + 1;
      Array.unsafe_set s 0 (Array.unsafe_get s 0 +. Array.unsafe_get costs 1);
      ignore (Cache.fill_probed t.l1c ~write)
    end
    else begin
      let line = Cache.probed_line t.l2c in
      if Prefetcher.note_miss t.pf ~line then begin
        t.seq_misses <- t.seq_misses + 1;
        Array.unsafe_set s 0
          (Array.unsafe_get s 0 +. Array.unsafe_get costs 4)
      end
      else begin
        t.rand_misses <- t.rand_misses + 1;
        Array.unsafe_set s 0
          (Array.unsafe_get s 0 +. Array.unsafe_get costs 2)
      end;
      if Cache.fill_probed t.l2c ~write then begin
        t.writebacks <- t.writebacks + 1;
        Array.unsafe_set s 0
          (Array.unsafe_get s 0 +. Array.unsafe_get costs 4)
      end;
      ignore (Cache.fill_probed t.l1c ~write)
    end
  end;
  Array.unsafe_set t.acc 0 (Array.unsafe_get t.acc 0 +. Array.unsafe_get s 0);
  Array.unsafe_set charge 0
    (Array.unsafe_get charge 0 +. Array.unsafe_get s 0);
  Array.unsafe_set charge 1
    (Array.unsafe_get charge 1 +. Array.unsafe_get s 0)

let access_into t ~addr ~write ~charge =
  match (t.prof, t.scope) with
  | None, None -> access_fast t ~addr ~write ~charge
  | _ ->
      let c = access_slow t ~addr ~write in
      Array.unsafe_set charge 0 (Array.unsafe_get charge 0 +. c);
      Array.unsafe_set charge 1 (Array.unsafe_get charge 1 +. c)

let access t ~addr ~write =
  match (t.prof, t.scope) with
  | None, None ->
      access_fast t ~addr ~write ~charge:t.sink;
      (* [scratch.(0)] still holds this access's exact cost. *)
      Array.unsafe_get t.scratch 0
  | _ -> access_slow t ~addr ~write

let flush t =
  t.last <- -1;
  Cache.flush t.l1c;
  Cache.flush t.l2c;
  (match t.tlb with Some tlb -> Tlb.flush tlb | None -> ());
  Prefetcher.reset t.pf;
  match t.scope with
  | Some node ->
      Obs.Cachescope.note_flush node ~level:0;
      Obs.Cachescope.note_flush node ~level:1
  | None -> ()

let invalidate_range t ~addr ~bytes =
  if bytes > 0 then begin
    t.last <- -1;
    let invalidate_in level c =
      let line = Cache.line_bytes c in
      let first = addr / line and last = (addr + bytes - 1) / line in
      for l = first to last do
        (match t.scope with
        | Some node when Cache.resident c ~addr:(l * line) ->
            Obs.Cachescope.note_invalidate node ~level ~line:l
        | _ -> ());
        Cache.invalidate c ~addr:(l * line)
      done
    in
    invalidate_in 0 t.l1c;
    invalidate_in 1 t.l2c
  end

type stats = {
  accesses : int;
  l1_hits : int;
  l2_hits : int;
  seq_misses : int;
  rand_misses : int;
  tlb_misses : int;
  writebacks : int;
  cost_ns : float;
}

let stats (t : t) =
  {
    accesses = t.accesses;
    l1_hits = t.l1_hits;
    l2_hits = t.l2_hits;
    seq_misses = t.seq_misses;
    rand_misses = t.rand_misses;
    tlb_misses = t.tlb_misses;
    writebacks = t.writebacks;
    cost_ns = t.acc.(0);
  }

let reset_stats (t : t) =
  t.accesses <- 0;
  t.l1_hits <- 0;
  t.l2_hits <- 0;
  t.seq_misses <- 0;
  t.rand_misses <- 0;
  t.tlb_misses <- 0;
  t.writebacks <- 0;
  t.acc.(0) <- 0.0;
  Cache.reset_stats t.l1c;
  Cache.reset_stats t.l2c;
  match t.tlb with Some tlb -> Tlb.reset_stats tlb | None -> ()

let zero_stats =
  {
    accesses = 0;
    l1_hits = 0;
    l2_hits = 0;
    seq_misses = 0;
    rand_misses = 0;
    tlb_misses = 0;
    writebacks = 0;
    cost_ns = 0.0;
  }

let add_stats a b =
  {
    accesses = a.accesses + b.accesses;
    l1_hits = a.l1_hits + b.l1_hits;
    l2_hits = a.l2_hits + b.l2_hits;
    seq_misses = a.seq_misses + b.seq_misses;
    rand_misses = a.rand_misses + b.rand_misses;
    tlb_misses = a.tlb_misses + b.tlb_misses;
    writebacks = a.writebacks + b.writebacks;
    cost_ns = a.cost_ns +. b.cost_ns;
  }

let sub_stats a b =
  {
    accesses = a.accesses - b.accesses;
    l1_hits = a.l1_hits - b.l1_hits;
    l2_hits = a.l2_hits - b.l2_hits;
    seq_misses = a.seq_misses - b.seq_misses;
    rand_misses = a.rand_misses - b.rand_misses;
    tlb_misses = a.tlb_misses - b.tlb_misses;
    writebacks = a.writebacks - b.writebacks;
    cost_ns = a.cost_ns -. b.cost_ns;
  }

let stats_breakdown (p : Mem_params.t) (s : stats) =
  let line_cost = float_of_int p.l2_line /. p.mem_seq_bw in
  [
    ("l1_hit", float_of_int s.l1_hits *. p.l1_hit_ns);
    ("l2_hit", float_of_int s.l2_hits *. p.b1_penalty_ns);
    ("ram_sequential", float_of_int s.seq_misses *. line_cost);
    ("ram_random", float_of_int s.rand_misses *. p.b2_penalty_ns);
    ("tlb_miss", float_of_int s.tlb_misses *. p.tlb_penalty_ns);
    ("ram_writeback", float_of_int s.writebacks *. line_cost);
  ]

let pp_stats fmt s =
  let pct part whole =
    if whole = 0 then 0.0 else 100.0 *. float_of_int part /. float_of_int whole
  in
  Format.fprintf fmt
    "@[<v>accesses     %d@,\
     L1 hits      %d (%.1f%%)@,\
     L2 hits      %d@,\
     seq misses   %d@,\
     rand misses  %d@,\
     TLB misses   %d@,\
     writebacks   %d@,\
     mem cost     %a@]"
    s.accesses s.l1_hits (pct s.l1_hits s.accesses) s.l2_hits s.seq_misses
    s.rand_misses s.tlb_misses s.writebacks Simcore.Simtime.pp s.cost_ns

let record_metrics (t : t) ?(labels = []) reg =
  Obs.Metrics.incr reg ~labels "mem_accesses" t.accesses;
  Obs.Metrics.incr reg ~labels "mem_l1_hits" t.l1_hits;
  Obs.Metrics.incr reg ~labels "mem_l2_hits" t.l2_hits;
  Obs.Metrics.incr reg ~labels "mem_seq_misses" t.seq_misses;
  Obs.Metrics.incr reg ~labels "mem_rand_misses" t.rand_misses;
  Obs.Metrics.incr reg ~labels "mem_tlb_misses" t.tlb_misses;
  Obs.Metrics.incr reg ~labels "mem_writebacks" t.writebacks;
  Obs.Metrics.incr_f reg ~labels "mem_cost_ns" t.acc.(0);
  Obs.Metrics.incr reg ~labels "prefetch_fills" (Prefetcher.fills t.pf);
  Obs.Metrics.incr reg ~labels "prefetch_useful" (Prefetcher.useful t.pf);
  Obs.Metrics.incr reg ~labels "prefetch_useless" (Prefetcher.useless t.pf);
  Cache.record_metrics t.l1c ~labels reg;
  Cache.record_metrics t.l2c ~labels reg;
  (match t.tlb with
  | Some tlb -> Tlb.record_metrics tlb ~labels reg
  | None -> ());
  match t.scope with
  | Some node -> Obs.Cachescope.record_metrics node ~labels reg
  | None -> ()
