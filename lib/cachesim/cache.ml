(* Each set is a run of [n_ways] slots in one [slots] array, kept in
   recency order: the most recently used line first, empty slots (-1)
   last.  A slot holds [line * 2 + dirty], the full line number (not the
   set-relative tag) with the dirty bit in bit 0.

   A hit at way [w] moves that entry to the front by shifting the [w]
   entries before it back one slot; a fill drops the last slot (the LRU
   line, or an empty slot when the set is not full) and inserts the new
   line at the front the same way.  This is LRU exactly as a per-slot
   stamp model states it (the reference in test_cachesim): recency
   order is stamp order and empty slots collect at the tail, so the last
   slot is the way "first empty, else smallest stamp" picks.  Which slot
   a line sits in is not observable: [last_victim] and [probed_line]
   report line numbers.

   One word per slot keeps a set's metadata on one or two host cache
   lines, and the shifts touch only words the probe scan just read.
   With several simulated machines interleaving through one host core
   the slot arrays are usually cold, so their host footprint is a
   measurable share of simulation speed. *)

type t = {
  cache_name : string;
  size : int;
  line : int;
  line_shift : int;
  n_sets : int;
  set_mask : int;
  n_ways : int;
  slots : int array; (* n_sets * n_ways: line * 2 + dirty, -1 = empty *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable writebacks : int;
  mutable last_victim : int; (* line evicted by the last fill; -1 = none *)
  (* Probe result: set location of the line most recently probed, reused
     by [fill_probed] so a miss does not recompute line/base.  Both are
     immediate ints, so caching them allocates nothing. *)
  mutable probe_line : int;
  mutable probe_base : int;
  mutable last_slot : int;
      (* slot of the line most recently hit or filled, which [rehit]
         charges: the front of its set; 0 before the first, so it is
         always in bounds *)
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let create ?(name = "cache") ~size_bytes ~line_bytes ~ways () =
  if not (is_pow2 line_bytes) then
    invalid_arg "Cache.create: line size must be a power of two";
  if ways < 1 then invalid_arg "Cache.create: ways must be >= 1";
  if size_bytes mod (line_bytes * ways) <> 0 then
    invalid_arg "Cache.create: size not a multiple of line * ways";
  let n_sets = size_bytes / (line_bytes * ways) in
  if not (is_pow2 n_sets) then
    invalid_arg "Cache.create: set count must be a power of two";
  {
    cache_name = name;
    size = size_bytes;
    line = line_bytes;
    line_shift = log2 line_bytes;
    n_sets;
    set_mask = n_sets - 1;
    n_ways = ways;
    slots = Array.make (n_sets * ways) (-1);
    hits = 0;
    misses = 0;
    evictions = 0;
    writebacks = 0;
    last_victim = -1;
    probe_line = -1;
    probe_base = 0;
    last_slot = 0;
  }

let name t = t.cache_name
let line_bytes t = t.line
let ways t = t.n_ways
let sets t = t.n_sets
let lines t = t.size / t.line
let line_of_addr t addr = addr lsr t.line_shift

(* Index-validity invariant for the unsafe accesses below: every slot
   index is [base + w] with [base = (line land set_mask) * n_ways
   <= (n_sets - 1) * n_ways] and [0 <= w < n_ways], so
   [base + w < n_sets * n_ways], the length of [slots]. *)

(* Top-level recursion with explicit arguments: a local [let rec]
   capturing [t]/[base]/[line] would allocate a closure on every call
   without flambda.  [key = line * 2 + 1] matches a slot of [line] with
   either dirty bit ([e lor 1]); an empty slot ([-1]) never matches. *)
let rec find_way_from slots n_ways base key w =
  if w = n_ways then -1
  else if Array.unsafe_get slots (base + w) lor 1 = key then w
  else find_way_from slots n_ways base key (w + 1)

let find_way t base line = find_way_from t.slots t.n_ways base ((line * 2) + 1) 0

(* Move the entries at [base, base + w) back one slot, to
   [base + 1, base + w]; the entry at [base + w] is overwritten.
   The [int array] annotations here and on [shift_forward] matter:
   unannotated, the helper is polymorphic and each stored slot is a
   [caml_modify] call (the write barrier), seven per L2 fill. *)
let rec shift_back (slots : int array) base w =
  if w > 0 then begin
    Array.unsafe_set slots (base + w) (Array.unsafe_get slots (base + w - 1));
    shift_back slots base (w - 1)
  end

let probe t ~addr ~write =
  let line = addr lsr t.line_shift in
  let base = (line land t.set_mask) * t.n_ways in
  t.probe_line <- line;
  t.probe_base <- base;
  let w = find_way t base line in
  if w >= 0 then begin
    let e = Array.unsafe_get t.slots (base + w) in
    shift_back t.slots base w;
    Array.unsafe_set t.slots base (if write then e lor 1 else e);
    t.last_slot <- base;
    t.hits <- t.hits + 1;
    true
  end
  else begin
    t.misses <- t.misses + 1;
    false
  end

(* The line in [last_slot] is already at the front of its set, so a
   repeat hit leaves recency order as it is: only the counter and the
   dirty bit change. *)
let rehit t ~write =
  t.hits <- t.hits + 1;
  if write then
    Array.unsafe_set t.slots t.last_slot
      (Array.unsafe_get t.slots t.last_slot lor 1)

let access = probe
let probed_line t = t.probe_line

let fill_probed t ~write =
  let base = t.probe_base in
  let last = t.n_ways - 1 in
  let prev = Array.unsafe_get t.slots (base + last) in
  t.last_victim <- prev asr 1;
  shift_back t.slots base last;
  Array.unsafe_set t.slots base ((t.probe_line * 2) + if write then 1 else 0);
  t.last_slot <- base;
  if prev = -1 then false
  else begin
    t.evictions <- t.evictions + 1;
    if prev land 1 = 0 then false
    else begin
      t.writebacks <- t.writebacks + 1;
      true
    end
  end

let fill t ~addr ~write =
  let line = addr lsr t.line_shift in
  t.probe_line <- line;
  t.probe_base <- (line land t.set_mask) * t.n_ways;
  fill_probed t ~write

let last_victim t = t.last_victim

let resident t ~addr =
  let line = addr lsr t.line_shift in
  let base = (line land t.set_mask) * t.n_ways in
  find_way t base line >= 0

(* Move the entries at [(i, last]] forward one slot, to [[i, last)]. *)
let rec shift_forward (slots : int array) i last =
  if i < last then begin
    Array.unsafe_set slots i (Array.unsafe_get slots (i + 1));
    shift_forward slots (i + 1) last
  end

let invalidate t ~addr =
  let line = addr lsr t.line_shift in
  let base = (line land t.set_mask) * t.n_ways in
  let w = find_way t base line in
  if w >= 0 then begin
    let last = base + t.n_ways - 1 in
    shift_forward t.slots (base + w) last;
    Array.unsafe_set t.slots last (-1)
  end

let flush t = Array.fill t.slots 0 (Array.length t.slots) (-1)

type stats = { hits : int; misses : int; evictions : int; writebacks : int }

let stats (t : t) =
  { hits = t.hits; misses = t.misses; evictions = t.evictions; writebacks = t.writebacks }

let reset_stats (t : t) =
  t.hits <- 0;
  t.misses <- 0;
  t.evictions <- 0;
  t.writebacks <- 0

let record_metrics (t : t) ?(labels = []) reg =
  let labels = ("level", t.cache_name) :: labels in
  Obs.Metrics.incr reg ~labels "cache_hits" t.hits;
  Obs.Metrics.incr reg ~labels "cache_misses" t.misses;
  Obs.Metrics.incr reg ~labels "cache_evictions" t.evictions;
  Obs.Metrics.incr reg ~labels "cache_writebacks" t.writebacks
