(** Network technology profiles.

    A profile captures the three quantities the paper's analysis uses:
    one-way latency, one-way per-NIC bandwidth (W2), and the per-message
    host software overhead (MPI library + OS protocol stack) that is {e
    not} overlapped with computation.  The last one is what makes small
    batches expensive: the paper measured 50% slave idle time at 8 KB
    batches and attributes it to "the overhead of MPI and the operating
    system". *)

type t = {
  name : string;
  latency_ns : float;  (** One-way network latency (wire + switch). *)
  bandwidth : float;  (** W2: one-way bandwidth in bytes/ns per NIC. *)
  host_overhead_ns : float;
      (** Per-message CPU cost charged at each endpoint (send and
          receive). *)
}

val myrinet : t
(** The paper's Myrinet/GM: 7 us latency, measured 138 MB/s one-way. *)

val gigabit_ethernet : t
(** ~100 us latency, 125 MB/s; the paper notes batches must grow to
    ~200 KB before transmission time dominates latency. *)

val fast_ethernet : t
(** The cluster's 100 Mb/s alternative interconnect. *)

val transfer_ns : t -> int -> float
(** Pure wire occupancy of a message of [n] bytes ([n / bandwidth]). *)

val delivery_ns : t -> int -> float
(** End-to-end time of an isolated message: transfer + latency. *)

val scale_bandwidth : t -> float -> t
(** Multiply bandwidth (for the future-trends model). *)
