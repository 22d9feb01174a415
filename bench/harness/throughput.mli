(** Host wall-clock throughput of the simulator itself.

    Everything else this repo measures is simulated time; this module
    measures how many simulated queries and engine events the simulator
    retires per second of {e host} time, on the fig3 grid cells and the
    ci-serve saturation scenario.  Measurements are inherently
    host-dependent, so the committed artifact ([BENCH_009.json]) is an
    append-only {e trajectory} of labelled samples (e.g. one entry per
    optimisation pass, all measured on one host) rather than a bit-exact
    golden, and the CI check over it is advisory (warn-only). *)

type cell = {
  key : string;  (** e.g. ["fig3/B/batch=128KB"], ["serve/ci-serve/C-3"] *)
  queries : int;  (** simulated queries retired by one run *)
  events : int;  (** engine events executed by one run *)
  wall_s : float;  (** best-of-[repeats] host wall seconds for the run *)
  qps : float;  (** [queries /. wall_s] *)
  eps : float;  (** [events /. wall_s] *)
}

type gc = {
  minor_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
  top_heap_words : int;
}
(** Host allocation counters over the whole measurement pass
    ([Gc.quick_stat] deltas); suppressed (None) under
    [SOURCE_DATE_EPOCH] like the pool's wall-clock stats. *)

type sample = {
  label : string;
  repeats : int;
  cells : cell list;
  gc : gc option;
}

val measure : ?smoke:bool -> label:string -> unit -> sample
(** Run the harness.  The full pass (default) times every fig3 grid
    cell (CI scenario; 8 KB / 128 KB / 1 MB batches; methods A, B, C-3)
    and the ci-serve saturation cell for methods B and C-3, best of 3.
    [smoke] runs one reduced cell per family once — the
    [@bench-throughput] CI alias. *)

val of_json : Obs.Json.t -> (sample list, string) result
(** {!Doc.of_json} over the ["trajectory"] section. *)

val load : string -> (sample list, string) result

val append : path:string -> sample -> sample list
(** Append one sample to the trajectory at [path] (created when
    missing), save it, and return the whole trajectory. *)

val advisory : reference:sample -> current:sample -> string list
(** Warn-only regression check: one warning line per cell of [current]
    whose queries/sec fell under {!advisory_threshold} of the matching
    cell in [reference].  Never a hard failure — wall-clock numbers
    from different hosts are not comparable enough to gate on. *)

val advisory_threshold : float

val render_sample : sample -> string
val render_trajectory : sample list -> string
