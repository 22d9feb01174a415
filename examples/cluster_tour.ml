(* A tour of the simulation substrates underneath the reproduction:
   build a small cluster by hand with the public APIs — machines with
   simulated caches, the interconnect, and the execution tracer — and
   watch a toy bulk-synchronous computation run on it.

   Each of 4 ranks owns a slice of a shared array, scans it (streaming,
   cheap), then performs random lookups into its own slice (latency-bound
   while cold), and sends its checksum to rank 0, which sums them.  The
   lookup load is skewed across ranks, so the printed Gantt chart shows
   the fast ranks finishing while rank 3 is still busy.

   Run with:  dune exec examples/cluster_tour.exe *)

open Simcore

let ranks = 4
let slice_words = 1 lsl 16 (* 256 KB per rank: larger than L1, fits L2 *)

let () =
  let eng = Engine.create () in
  let net = Netsim.Network.create eng Netsim.Profile.myrinet ~nodes:ranks in
  let machines =
    Array.init ranks (fun r ->
        Machine.create eng
          ~name:(Printf.sprintf "rank%d" r)
          Cachesim.Mem_params.pentium3)
  in
  let checksum = ref None in
  let trace = Trace.create () in
  Trace.with_recording trace (fun () ->
      for r = 0 to ranks - 1 do
        let m = machines.(r) in
        let base = Machine.alloc m slice_words in
        for i = 0 to slice_words - 1 do
          Machine.poke m (base + i) ((r * slice_words) + i)
        done;
        Engine.spawn eng ~name:(Printf.sprintf "rank%d" r) (fun () ->
            (* Phase 1: streaming scan — the prefetcher keeps this at
               sequential bandwidth. *)
            let sum = ref 0 in
            for i = 0 to slice_words - 1 do
              sum := !sum + Machine.read m (base + i)
            done;
            Machine.sync m;
            (* Phase 2: random lookups — each miss pays the full B2
               latency until the slice settles into L2. *)
            let g = Prng.Splitmix.create (100 + r) in
            (* Deliberately unbalanced: rank r does (r+1) x 15k lookups,
               so the Gantt chart shows rank 0 waiting for the others'
               checksums. *)
            for _ = 1 to 15_000 * (r + 1) do
              sum := !sum + Machine.read m (base + Prng.Splitmix.int g slice_words)
            done;
            Machine.sync m;
            (* Phase 3: reduce the checksums at rank 0. *)
            if r > 0 then Netsim.Network.isend net ~src:r ~dst:0 ~size:8 !sum
            else begin
              for _ = 1 to ranks - 1 do
                sum := !sum + (Netsim.Network.recv net ~dst:0).Netsim.Network.payload
              done;
              checksum := Some !sum
            end)
      done;
      Engine.run eng);

  (* The checksum is deterministic: every rank's scan plus its seeded
     random lookups. *)
  (match !checksum with
  | Some total -> Format.printf "reduced checksum at rank 0: %d@." total
  | None -> failwith "reduction never completed");
  Format.printf "simulated wall time: %s@.@."
    (Simtime.to_string (Engine.now eng));

  (* Per-rank cache behaviour. *)
  Array.iter
    (fun m ->
      let s = Cachesim.Hierarchy.stats (Machine.hierarchy m) in
      Format.printf "%-6s  %a@.@." (Machine.name m)
        Cachesim.Hierarchy.pp_stats s)
    machines;

  print_string (Trace.render_gantt trace)
