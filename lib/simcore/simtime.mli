(** Time units and formatting for the simulator.

    The whole simulator measures time as a [float] count of nanoseconds;
    this module centralises the conversions so magic constants never appear
    in model or dispatch code. *)

val us : float -> float
(** Microseconds to nanoseconds. *)

val ms : float -> float
(** Milliseconds to nanoseconds. *)

val s : float -> float
(** Seconds to nanoseconds. *)

val to_s : float -> float
(** Nanoseconds to seconds. *)

val to_us : float -> float

val pp : Format.formatter -> float -> unit
(** Human-readable duration with an auto-selected unit
    (e.g. ["1.50 us"], ["0.32 s"]). *)

val to_string : float -> string

(** Bandwidth helpers: the simulator carries bandwidths as bytes per
    nanosecond ([B/ns], numerically equal to GB/s). *)

val bytes_per_ns_of_mb_per_s : float -> float
(** Convert MB/s (10^6 bytes) to bytes/ns. *)

val mb_per_s_of_bytes_per_ns : float -> float
