(** A fully associative LRU TLB.

    Tracks which pages are resident and counts hits, misses and
    evictions; like {!Cache} it stores no translations, only residency.
    Every outcome is the one a one-set, [entries]-way {!Cache} with
    [line = page] would give — the TLB is that cache, specialised so a
    hit and a miss both cost O(1) instead of a scan of every way:

    - an open-addressed page → slot table (linear probing, backward-shift
      deletion) finds a page without scanning;
    - an intrusive doubly linked list over the slots keeps LRU order, so
      a hit moves its slot to the front and a miss evicts the back. *)

type t

val create : entries:int -> page_bytes:int -> t
(** [create ~entries ~page_bytes] is an empty TLB of [entries] pages.
    [entries] must be at least 1 and [page_bytes] a power of two. *)

val access : t -> addr:int -> bool
(** [access t ~addr] looks up the page holding byte address [addr].  On
    a hit it makes the page most recently used and returns [true]; on a
    miss it installs the page, evicting the least recently used one when
    the TLB is full, and returns [false].  Allocates nothing. *)

val rehit : t -> unit
(** Count a hit on the most recently used page without looking it up —
    exactly what {!access} does for an address in that page.  Only
    meaningful when the caller knows the address maps to that page. *)

val flush : t -> unit
(** Drop every page (statistics are kept). *)

val stats : t -> Cache.stats
(** Hits, misses and evictions; [writebacks] is always 0. *)

val reset_stats : t -> unit

val record_metrics : t -> ?labels:(string * string) list -> Obs.Metrics.t -> unit
(** The counters as [cache_hits], [cache_misses], [cache_evictions] and
    [cache_writebacks] labelled [level=TLB] plus any extra [labels] —
    the same series {!Cache.record_metrics} emits for a cache level. *)
