(** Structural summary of a built tree index — the quantities the paper's
    Table 1 reports. *)

type t = {
  structure : string;  (** ["nary"], ["csb+"], ... *)
  n_keys : int;
  levels : int;  (** T: total levels including the leaf level. *)
  nodes : int;
  node_bytes : int;
  total_bytes : int;
  keys_per_node : int;
  fanout : int;  (** Maximum children per interior node. *)
}
