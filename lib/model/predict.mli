(** Per-query cost predictions for the three analysed methods
    (Appendix A, Sections A.2.1-A.2.3), in nanoseconds per search key.

    All predictions are {e normalized} the way the paper's Table 3 is:
    Methods A and B run replicated on every node of an [n]-node cluster,
    so their per-key cluster cost is the single-node cost divided by [n];
    Method C's equation already divides master and slave costs by their
    counts. *)

type tree_shape = {
  level_nodes : int array;  (** Nodes per level, root first. *)
  lines_per_node : int;  (** L2 lines occupied by one node (paper: 1). *)
  levels : int;  (** T. *)
}

val shape_of_counts : int array -> lines_per_node:int -> tree_shape

val method_a :
  Cachesim.Mem_params.t -> tree_shape -> normalize_nodes:int -> float
(** Section A.2.1: [T * comp_node + 8/W1 + steady_misses * B2], divided
    by [normalize_nodes]. *)

val method_b :
  Cachesim.Mem_params.t ->
  tree_shape ->
  group_levels:int ->
  batch_keys:int ->
  normalize_nodes:int ->
  float
(** Section A.2.2: computation + subtree loading (Equation 6) + in-cache
    access (Equation 7) + buffer read/write traffic, for subtrees of
    [group_levels] levels processed over batches of [batch_keys] keys. *)

val method_c3 :
  Cachesim.Mem_params.t ->
  Netsim.Profile.t ->
  slave_keys:int ->
  n_masters:int ->
  n_slaves:int ->
  float
(** Section A.2.3 (Equation 8),
    [max(master per-key cost / masters, slave per-key cost / slaves)],
    for the sorted-array slave: [L = log2 slave_keys] binary-search
    probes at [comp_cost_probe] each, hitting L2 ([B1] penalty per
    probe). *)

val master_bound_ns : Netsim.Profile.t -> n_masters:int -> float
(** The network component of the master side ([4 / W2] per key):  the
    floor imposed by the master NIC on any Method C variant. *)
