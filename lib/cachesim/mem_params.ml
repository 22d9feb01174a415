type t = {
  name : string;
  l1_size : int;
  l1_line : int;
  l1_ways : int;
  l2_size : int;
  l2_line : int;
  l2_ways : int;
  l1_hit_ns : float;
  b1_penalty_ns : float;
  b2_penalty_ns : float;
  mem_seq_bw : float;
  tlb_entries : int;
  tlb_penalty_ns : float;
  page_bytes : int;
  comp_cost_node_ns : float;
  comp_cost_probe_ns : float;
  word_bytes : int;
}

let kib n = n * 1024

let pentium3 =
  {
    name = "pentium3";
    l1_size = kib 16;
    l1_line = 32;
    l1_ways = 4;
    l2_size = kib 512;
    l2_line = 32;
    l2_ways = 8;
    l1_hit_ns = 0.0;
    b1_penalty_ns = 16.25;
    b2_penalty_ns = 110.0;
    mem_seq_bw = Simcore.Simtime.bytes_per_ns_of_mb_per_s 647.0;
    tlb_entries = 64;
    tlb_penalty_ns = 30.0;
    page_bytes = 4096;
    comp_cost_node_ns = 30.0;
    comp_cost_probe_ns = 4.0;
    word_bytes = 4;
  }

let pentium4 =
  {
    name = "pentium4";
    l1_size = kib 16;
    l1_line = 64;
    l1_ways = 8;
    l2_size = kib 1024;
    l2_line = 128;
    l2_ways = 8;
    l1_hit_ns = 0.0;
    b1_penalty_ns = 9.0;
    b2_penalty_ns = 150.0;
    mem_seq_bw = Simcore.Simtime.bytes_per_ns_of_mb_per_s 2100.0;
    tlb_entries = 64;
    tlb_penalty_ns = 20.0;
    page_bytes = 4096;
    comp_cost_node_ns = 12.0;
    comp_cost_probe_ns = 1.5;
    word_bytes = 4;
  }

let words_per_line t = t.l2_line / t.word_bytes
