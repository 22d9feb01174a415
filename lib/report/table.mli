(** Aligned plain-text tables for experiment output (the shape of the
    paper's Tables 1-3). *)

type t

val create : headers:string list -> t
(** A table with the given column headers. *)

val add_row : t -> string list -> unit
(** Append a row; must have as many cells as there are headers. *)

val add_rows : t -> string list list -> unit

val rows : t -> int

val render : t -> string
(** Render with a header separator and right-padded columns. *)

val cell_f : ?decimals:int -> float -> string
(** Format a float cell ([decimals] defaults to 2). *)

val cell_i : int -> string
val cell_pct : float -> string
(** Format a ratio as a percentage with one decimal. *)
