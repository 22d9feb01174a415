open Cachesim

type tree_shape = {
  level_nodes : int array;
  lines_per_node : int;
  levels : int;
}

let shape_of_counts counts ~lines_per_node =
  if Array.length counts = 0 then invalid_arg "Predict.shape_of_counts: empty";
  { level_nodes = counts; lines_per_node; levels = Array.length counts }

let log2_ceil n =
  let rec go acc v = if v >= n then acc else go (acc + 1) (v * 2) in
  go 0 1

let lambdas shape = Xd.of_level_nodes shape.level_nodes ~lines_per_node:shape.lines_per_node

let cache_lines (p : Mem_params.t) = float_of_int (p.l2_size / p.l2_line)

(* Per-key input/output buffer traffic: reading the search key and writing
   the result, both streaming at full memory bandwidth. *)
let io_ns (p : Mem_params.t) = 2.0 *. float_of_int p.word_bytes /. p.mem_seq_bw

let method_a (p : Mem_params.t) shape ~normalize_nodes =
  if normalize_nodes < 1 then invalid_arg "Predict.method_a: bad node count";
  let misses = Xd.steady_misses (lambdas shape) ~cache_lines:(cache_lines p) in
  let per_key =
    (float_of_int shape.levels *. p.comp_cost_node_ns)
    +. io_ns p
    +. (misses *. p.b2_penalty_ns)
  in
  per_key /. float_of_int normalize_nodes

let method_b (p : Mem_params.t) shape ~group_levels ~batch_keys ~normalize_nodes =
  if group_levels < 1 then invalid_arg "Predict.method_b: bad group height";
  if batch_keys < 1 then invalid_arg "Predict.method_b: bad batch";
  if normalize_nodes < 1 then invalid_arg "Predict.method_b: bad node count";
  let t = float_of_int shape.levels in
  let groups = float_of_int ((shape.levels + group_levels - 1) / group_levels) in
  let q = float_of_int batch_keys in
  (* Equation 6: subtree loading, amortised over the batch. *)
  let cold = Xd.cold_misses_per_lookup (lambdas shape) ~q in
  let theta1 = cold *. p.b2_penalty_ns in
  (* Equation 7: the remaining node touches are L2-resident. *)
  let theta2 = Float.max 0.0 (t -. cold) *. p.b1_penalty_ns in
  let w = float_of_int p.word_bytes in
  (* Reading a key from each group's buffer is streaming... *)
  let buffer_reads = w /. p.mem_seq_bw *. groups in
  (* ... while writing it to the buffer chosen by the key value costs one
     amortised cache-line miss per line of entries (paper's
     B2_penalty * 4/B2 per group transition). *)
  let buffer_writes =
    p.b2_penalty_ns *. (w /. float_of_int p.l2_line) *. (groups -. 1.0)
  in
  let per_key =
    (t *. p.comp_cost_node_ns) +. theta1 +. theta2 +. io_ns p +. buffer_reads
    +. buffer_writes
  in
  per_key /. float_of_int normalize_nodes

type method_c_inputs = {
  slave_levels : int;  (* L: levels (or probes) at a slave *)
  per_level_comp_ns : float;  (* comparison cost per level/probe *)
  per_level_mem_ns : float;  (* memory cost per level/probe (B1) *)
  dispatch_ns : float;  (* master-side routing cost per key *)
  n_masters : int;
  n_slaves : int;
}

let method_c (p : Mem_params.t) (net : Netsim.Profile.t) c =
  if c.n_masters < 1 || c.n_slaves < 1 then
    invalid_arg "Predict.method_c: need at least one master and one slave";
  let w = float_of_int p.word_bytes in
  let wire = w /. net.Netsim.Profile.bandwidth in
  (* Within each node, communication overlaps computation (MPI_Isend;
     paper §2.1 calls the overlapped communication cost negligible), so a
     node's per-key cost is the max of its CPU work and its NIC
     occupancy, not their sum.  Reading Equation 8 with a sum instead
     predicts 0.48 s for the paper's own Table 3 configuration, where the
     paper prints 0.28 s — the overlap reading reproduces their number. *)
  let master =
    Float.max (c.dispatch_ns +. io_ns p) wire /. float_of_int c.n_masters
  in
  let slave =
    Float.max
      ((float_of_int c.slave_levels *. (c.per_level_comp_ns +. c.per_level_mem_ns))
      +. io_ns p)
      wire
    /. float_of_int c.n_slaves
  in
  Float.max master slave

let method_c3 (p : Mem_params.t) net ~slave_keys ~n_masters ~n_slaves =
  if slave_keys < 1 then invalid_arg "Predict.method_c3: bad slave_keys";
  method_c p net
    {
      slave_levels = log2_ceil slave_keys;
      per_level_comp_ns = p.comp_cost_probe_ns;
      per_level_mem_ns = p.b1_penalty_ns;
      dispatch_ns =
        p.comp_cost_probe_ns *. float_of_int (log2_ceil (n_slaves + 1));
      n_masters;
      n_slaves;
    }

let master_bound_ns (net : Netsim.Profile.t) ~n_masters =
  4.0 /. net.Netsim.Profile.bandwidth /. float_of_int n_masters
