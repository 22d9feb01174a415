(** SplitMix64 pseudo-random number generator.

    A small, fast, splittable PRNG (Steele, Lea & Flood, OOPSLA 2014) used
    for every source of randomness in the reproduction, so that runs are
    deterministic for a given seed and independent streams can be derived
    with {!split} without correlation between, e.g., index keys and query
    keys. *)

type t

val create : int -> t
(** [create seed] initialises a generator from an integer seed. *)

val copy : t -> t

val split : t -> t
(** [split g] advances [g] and returns a new generator whose stream is
    statistically independent of the remainder of [g]'s stream. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val bits30 : t -> int
(** 30 uniformly random bits as a non-negative [int]. *)

val int : t -> int -> int
(** [int g bound] is uniform in [\[0, bound)]; [bound] must be positive.
    Uses rejection sampling, so it is exactly uniform. *)

val int_in : t -> int -> int -> int
(** [int_in g lo hi] is uniform in [\[lo, hi\]] inclusive. *)

val float : t -> float -> float
(** [float g bound] is uniform in [\[0, bound)]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
