(** Multi-series ASCII line plots — terminal renderings of the paper's
    Figure 3 and Figure 4.

    Each series gets a single-character glyph; overlapping points show the
    glyph of the later series.  The x-axis can be plotted on a log2 scale,
    which is how Figure 3's batch-size axis is presented. *)

type series = { label : string; glyph : char; points : (float * float) array }

val render :
  ?width:int ->
  ?height:int ->
  ?logx:bool ->
  ?y_min:float ->
  x_label:string ->
  y_label:string ->
  series list ->
  string
(** [render ~x_label ~y_label series] draws all series on a shared grid
    (default 72x20), with axis ranges from the data (the y-axis floor
    overridable by [y_min]), followed by a legend. *)

val heat_row : ?v_min:float -> ?v_max:float -> label:string -> float array -> string
(** [label] padded to a fixed 14-column gutter, a [|], then one
    character per value from a ten-step ASCII ramp [" .:-=+*#%@"],
    scaled between [v_min]/[v_max] (defaults: the data's own range; a
    constant series renders at the bottom of the ramp) — stackable into
    a per-lane heat map where rows share a scale.  Pure ASCII so golden
    files stay portable. *)
