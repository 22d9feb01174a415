open Simcore

type t = {
  name : string;
  latency_ns : float;
  bandwidth : float;
  host_overhead_ns : float;
}

let myrinet =
  {
    name = "myrinet";
    latency_ns = Simtime.us 7.0;
    bandwidth = Simtime.bytes_per_ns_of_mb_per_s 138.0;
    (* MPICH over GM: user-level networking, but MPI library costs per
       message remain; 7 us reproduces the paper's observed slave idle
       fractions (50% at 8 KB batches, ~20% at 4 MB). *)
    host_overhead_ns = Simtime.us 7.0;
  }

let gigabit_ethernet =
  {
    name = "gigabit-ethernet";
    latency_ns = Simtime.us 100.0;
    bandwidth = Simtime.bytes_per_ns_of_mb_per_s 125.0;
    host_overhead_ns = Simtime.us 60.0;
  }

let fast_ethernet =
  {
    name = "fast-ethernet";
    latency_ns = Simtime.us 100.0;
    bandwidth = Simtime.bytes_per_ns_of_mb_per_s 12.5;
    host_overhead_ns = Simtime.us 60.0;
  }

let transfer_ns t bytes = float_of_int bytes /. t.bandwidth
let delivery_ns t bytes = transfer_ns t bytes +. t.latency_ns
let scale_bandwidth t f = { t with bandwidth = t.bandwidth *. f }
