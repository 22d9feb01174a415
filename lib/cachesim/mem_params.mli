(** Machine memory-system parameters.

    One record gathers every architectural constant the simulator and the
    analytical model need: cache geometry, miss penalties, memory
    bandwidth, TLB shape and per-node comparison costs.  The defaults are
    the measured Pentium III values of the paper's Table 2; a Pentium 4
    profile covers the 128-byte-line discussion of Section 2.2. *)

type t = {
  name : string;
  (* Cache geometry *)
  l1_size : int;  (** L1 data cache capacity in bytes. *)
  l1_line : int;  (** L1 line size in bytes (B1 in the paper). *)
  l1_ways : int;  (** L1 associativity. *)
  l2_size : int;  (** L2 capacity in bytes (C2). *)
  l2_line : int;  (** L2 line size in bytes (B2). *)
  l2_ways : int;  (** L2 associativity. *)
  (* Latencies and bandwidth *)
  l1_hit_ns : float;  (** Cost of an L1 hit (folded into CPU time: 0). *)
  b1_penalty_ns : float;  (** L1 miss, L2 hit: line load L2 -> L1. *)
  b2_penalty_ns : float;  (** L2 miss with random access: line load RAM -> L2. *)
  mem_seq_bw : float;
      (** W1, sequential memory bandwidth in bytes/ns; applies to detected
          streaming misses (hardware prefetch) and write-backs. *)
  (* TLB *)
  tlb_entries : int;
  tlb_penalty_ns : float;
  page_bytes : int;
  (* CPU costs *)
  comp_cost_node_ns : float;
      (** Cost to traverse one level of the tree: scan one node the size of
          a cache line (Table 2 "Comp Cost Node"). *)
  comp_cost_probe_ns : float;
      (** One binary-search probe: compare + branch + index update. *)
  word_bytes : int;  (** Key/pointer width; 4 on the paper's machines. *)
}

val pentium3 : t
(** The paper's experimental platform (Table 2): 16 KB L1 / 512 KB L2,
    32-byte lines, B1 = 16.25 ns, B2 = 110 ns, W1 = 647 MB/s, 64-entry TLB,
    30 ns node comparison cost. *)

val pentium4 : t
(** A Pentium 4-like profile used by the line-size ablation: 128-byte L2
    lines, larger L2, higher miss penalty (Section 1: ~150 ns). *)

val words_per_line : t -> int
(** L2-line capacity in words — the paper's [n] for n-ary tree nodes. *)
