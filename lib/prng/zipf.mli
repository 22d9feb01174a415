(** Zipf-distributed sampling over [{0, ..., n-1}].

    Element [k] (0-based) is drawn with probability proportional to
    [1 / (k+1)^s].  Used by the workload generator for the key-skew
    ablation: the paper assumes uniformly distributed query keys, and this
    sampler lets us test how Method C's master dispatch and slave load
    balance degrade under skew.

    Sampling is by inverse transform over a precomputed CDF (O(log n) per
    draw, O(n) memory), which is exact and fast enough for the simulated
    query volumes. *)

type t

val create : n:int -> s:float -> t
(** [create ~n ~s] precomputes the distribution for [n >= 1] elements with
    exponent [s >= 0].  [s = 0] degenerates to the uniform distribution. *)

val sample : t -> Splitmix.t -> int
(** Draw an element index in [\[0, n)]. *)

val pmf : t -> int -> float
(** Probability of element [k]. *)
