(* Tags store the full line number (not the set-relative tag); a slot is
   empty when its tag is -1.  LRU is a per-slot monotone stamp: the victim
   is the way with the smallest stamp.  Both probe and victim search scan
   the [ways] slots of one set, which is a handful of array reads.

   Tag and stamp live interleaved in one [meta] array — slot [i]'s tag at
   [2 * i], its stamp at [2 * i + 1] — so the stamp write that follows
   every tag match lands on the host cache line the scan just pulled in.
   With several simulated machines interleaving through one host core the
   slot arrays are usually cold, and touching one line per probe instead
   of two is a measurable share of simulation speed. *)

type t = {
  cache_name : string;
  size : int;
  line : int;
  line_shift : int;
  n_sets : int;
  set_mask : int;
  n_ways : int;
  meta : int array; (* 2 * n_sets * n_ways: tag at 2i, stamp at 2i+1 *)
  dirty : Bytes.t; (* one byte per slot, '\000' = clean — a bool array
                      would spend a full word per flag, and the host
                      cache footprint of the slot arrays is what bounds
                      simulation speed *)
  mutable tick : int;
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
         charges; 0 before the first, so it is always in bounds *)
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
    meta =
      Array.init (2 * n_sets * ways) (fun j -> if j land 1 = 0 then -1 else 0);
    dirty = Bytes.make (n_sets * ways) '\000';
    tick = 0;
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
let size_bytes t = t.size
let line_bytes t = t.line
let ways t = t.n_ways
let sets t = t.n_sets
let lines t = t.size / t.line
let line_of_addr t addr = addr lsr t.line_shift

(* Index-validity invariant for the unsafe scans below: every slot index
   is [base + w] with [base = (line land set_mask) * n_ways
   <= (n_sets - 1) * n_ways] and [w < n_ways], so
   [2 * (base + w) + 1 < 2 * n_sets * n_ways], the length of [meta],
   and [base + w < n_sets * n_ways], the length of [dirty]. *)

(* Top-level recursion with explicit arguments: a local [let rec]
   capturing [t]/[base]/[line] would allocate a closure on every call
   without flambda. *)
let rec find_way_from meta n_ways base line w =
  if w = n_ways then -1
  else if Array.unsafe_get meta (2 * (base + w)) = line then w
  else find_way_from meta n_ways base line (w + 1)

let find_way t base line = find_way_from t.meta t.n_ways base line 0

let probe t ~addr ~write =
  let line = addr lsr t.line_shift in
  let base = (line land t.set_mask) * t.n_ways in
  t.probe_line <- line;
  t.probe_base <- base;
  let w = find_way t base line in
  if w >= 0 then begin
    let i = base + w in
    t.last_slot <- i;
    t.hits <- t.hits + 1;
    t.tick <- t.tick + 1;
    Array.unsafe_set t.meta ((2 * i) + 1) t.tick;
    if write then Bytes.unsafe_set t.dirty i '\001';
    true
  end
  else begin
    t.misses <- t.misses + 1;
    false
  end

(* The line in [last_slot] already holds its set's newest stamp, so a
   repeat hit leaves LRU order as it is: only the counter and the dirty
   bit change. *)
let rehit t ~write =
  t.hits <- t.hits + 1;
  if write then Bytes.unsafe_set t.dirty t.last_slot '\001'

let access = probe
let probed_line t = t.probe_line

(* Prefer the first empty way; otherwise evict the way with the
   smallest stamp (first minimum wins ties) — same selection as the
   historical two-ref loop, folded into one accumulator scan. *)
let rec pick_way meta n_ways base w empty lru_way lru_stamp =
  if w = n_ways then if empty >= 0 then empty else lru_way
  else begin
    let i = 2 * (base + w) in
    let empty =
      if empty = -1 && Array.unsafe_get meta i = -1 then w else empty
    in
    let s = Array.unsafe_get meta (i + 1) in
    if s < lru_stamp then pick_way meta n_ways base (w + 1) empty w s
    else pick_way meta n_ways base (w + 1) empty lru_way lru_stamp
  end

let fill_probed t ~write =
  let line = t.probe_line in
  let base = t.probe_base in
  let w = pick_way t.meta t.n_ways base 0 (-1) 0 max_int in
  let i = base + w in
  let prev = Array.unsafe_get t.meta (2 * i) in
  t.last_victim <- prev;
  let wrote_back =
    if prev <> -1 then begin
      t.evictions <- t.evictions + 1;
      if Bytes.unsafe_get t.dirty i <> '\000' then begin
        t.writebacks <- t.writebacks + 1;
        true
      end
      else false
    end
    else false
  in
  t.tick <- t.tick + 1;
  Array.unsafe_set t.meta (2 * i) line;
  Array.unsafe_set t.meta ((2 * i) + 1) t.tick;
  Bytes.unsafe_set t.dirty i (if write then '\001' else '\000');
  t.last_slot <- i;
  wrote_back

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

let invalidate t ~addr =
  let line = addr lsr t.line_shift in
  let base = (line land t.set_mask) * t.n_ways in
  let w = find_way t base line in
  if w >= 0 then begin
    t.meta.(2 * (base + w)) <- -1;
    t.meta.((2 * (base + w)) + 1) <- 0;
    Bytes.set t.dirty (base + w) '\000'
  end

let flush t =
  for i = 0 to (Array.length t.meta / 2) - 1 do
    t.meta.(2 * i) <- -1;
    t.meta.((2 * i) + 1) <- 0
  done;
  Bytes.fill t.dirty 0 (Bytes.length t.dirty) '\000'

type stats = { hits : int; misses : int; evictions : int; writebacks : int }

let stats (t : t) =
  { hits = t.hits; misses = t.misses; evictions = t.evictions; writebacks = t.writebacks }

let reset_stats (t : t) =
  t.hits <- 0;
  t.misses <- 0;
  t.evictions <- 0;
  t.writebacks <- 0

let pp_stats fmt s =
  let total = s.hits + s.misses in
  let ratio = if total = 0 then 0.0 else float_of_int s.hits /. float_of_int total in
  Format.fprintf fmt "hits %d, misses %d (%.1f%% hit), evictions %d, writebacks %d"
    s.hits s.misses (100.0 *. ratio) s.evictions s.writebacks

let record_metrics (t : t) ?(labels = []) reg =
  let labels = ("level", t.cache_name) :: labels in
  Obs.Metrics.incr reg ~labels "cache_hits" t.hits;
  Obs.Metrics.incr reg ~labels "cache_misses" t.misses;
  Obs.Metrics.incr reg ~labels "cache_evictions" t.evictions;
  Obs.Metrics.incr reg ~labels "cache_writebacks" t.writebacks
