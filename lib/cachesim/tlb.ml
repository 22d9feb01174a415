(* Slots hold resident pages; [page.(s) = -1] marks a slot never filled
   since the last flush.  Slots [0 .. used-1] are in use, so a miss takes
   slot [used] while the TLB fills and the LRU slot after that — which
   slot a page sits in is invisible to every outcome.

   [table] maps page → slot by open addressing: bucket [b] holds its
   page at [2 * b] (-1 = empty) and the slot at [2 * b + 1], so a probe
   reads one host line.  It has at least four buckets per entry, so a
   lookup ends at an empty bucket after a probe or two.

   [prev]/[next] link the used slots from most ([mru]) to least ([lru])
   recently used; -1 ends the list.  [mru_page] is [page.(mru)], or -1
   when the TLB is empty: every access to the page last touched is
   answered by comparing against it, before hashing.

   Index-validity invariant for the unsafe accesses below: buckets are
   masked by [mask = buckets - 1] and [Array.length table = 2 * buckets];
   slots stored in [table], [prev], [next], [mru] and [lru] are either
   -1 (never dereferenced) or in [0, entries). *)

type t = {
  entries : int;
  page_shift : int;
  page : int array;
  prev : int array;
  next : int array;
  table : int array;
  mask : int;
  hash_shift : int;
  mutable mru : int;
  mutable lru : int;
  mutable used : int;
  mutable mru_page : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let create ~entries ~page_bytes =
  if entries < 1 then invalid_arg "Tlb.create: entries must be >= 1";
  if not (is_pow2 page_bytes) then
    invalid_arg "Tlb.create: page size must be a power of two";
  let rec up b = if b >= 4 * entries then b else up (2 * b) in
  let buckets = up 1 in
  {
    entries;
    page_shift = log2 page_bytes;
    page = Array.make entries (-1);
    prev = Array.make entries (-1);
    next = Array.make entries (-1);
    table = Array.init (2 * buckets) (fun j -> if j land 1 = 0 then -1 else 0);
    mask = buckets - 1;
    (* Multiplicative hashing keeps the top bits of a 63-bit product, so
       pages a power of two apart (buffers [batch_keys] words apart)
       spread over the table instead of sharing a bucket. *)
    hash_shift = Sys.int_size - log2 buckets;
    mru = -1;
    lru = -1;
    used = 0;
    mru_page = -1;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let home t page = (page * 0x9E3779B97F4A7C1) lsr t.hash_shift

(* The bucket holding [page], or the empty bucket that ends its probe
   sequence.  Top-level with explicit arguments so no closure is
   allocated per call. *)
let rec find table mask page b =
  let k = Array.unsafe_get table (2 * b) in
  if k = page || k = -1 then b else find table mask page ((b + 1) land mask)

(* Backward-shift deletion: empty bucket [hole], then walk its run and
   pull back every entry whose home lies cyclically at or before the
   hole, so every probe sequence stays unbroken without tombstones. *)
let rec close_hole t hole b =
  let table = t.table in
  let b = (b + 1) land t.mask in
  let k = Array.unsafe_get table (2 * b) in
  if k = -1 then Array.unsafe_set table (2 * hole) (-1)
  else if (b - home t k) land t.mask >= (b - hole) land t.mask then begin
    Array.unsafe_set table (2 * hole) k;
    Array.unsafe_set table ((2 * hole) + 1) (Array.unsafe_get table ((2 * b) + 1));
    close_hole t b b
  end
  else close_hole t hole b

let unlink t s =
  let p = Array.unsafe_get t.prev s and n = Array.unsafe_get t.next s in
  if p >= 0 then Array.unsafe_set t.next p n else t.mru <- n;
  if n >= 0 then Array.unsafe_set t.prev n p else t.lru <- p

let push_front t s =
  Array.unsafe_set t.prev s (-1);
  Array.unsafe_set t.next s t.mru;
  if t.mru >= 0 then Array.unsafe_set t.prev t.mru s else t.lru <- s;
  t.mru <- s

let access t ~addr =
  let page = addr lsr t.page_shift in
  if page = t.mru_page then begin
    t.hits <- t.hits + 1;
    true
  end
  else begin
    let table = t.table in
    let b = find table t.mask page (home t page) in
    t.mru_page <- page;
    if Array.unsafe_get table (2 * b) = page then begin
      t.hits <- t.hits + 1;
      (* Not the MRU slot: that one holds the old [mru_page]. *)
      let s = Array.unsafe_get table ((2 * b) + 1) in
      unlink t s;
      push_front t s;
      true
    end
    else begin
      t.misses <- t.misses + 1;
      let s =
        if t.used < t.entries then begin
          let s = t.used in
          t.used <- s + 1;
          s
        end
        else begin
          let s = t.lru in
          t.evictions <- t.evictions + 1;
          unlink t s;
          s
        end
      in
      (* Insert before deleting the victim: [b] is only known to end
         [page]'s probe sequence in the current table, and the table
         always keeps an empty bucket for one extra entry. *)
      Array.unsafe_set table (2 * b) page;
      Array.unsafe_set table ((2 * b) + 1) s;
      let victim = Array.unsafe_get t.page s in
      if victim >= 0 then begin
        let vb = find table t.mask victim (home t victim) in
        close_hole t vb vb
      end;
      Array.unsafe_set t.page s page;
      push_front t s;
      false
    end
  end

let rehit t = t.hits <- t.hits + 1

let flush t =
  Array.fill t.page 0 t.entries (-1);
  for b = 0 to t.mask do
    t.table.(2 * b) <- -1
  done;
  t.mru <- -1;
  t.lru <- -1;
  t.used <- 0;
  t.mru_page <- -1

let stats t =
  { Cache.hits = t.hits; misses = t.misses; evictions = t.evictions; writebacks = 0 }

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0;
  t.evictions <- 0

let record_metrics t ?(labels = []) reg =
  let labels = ("level", "TLB") :: labels in
  Obs.Metrics.incr reg ~labels "cache_hits" t.hits;
  Obs.Metrics.incr reg ~labels "cache_misses" t.misses;
  Obs.Metrics.incr reg ~labels "cache_evictions" t.evictions;
  Obs.Metrics.incr reg ~labels "cache_writebacks" 0
