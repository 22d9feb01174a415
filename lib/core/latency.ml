type t = {
  stride : int;
  acc : float array; (* [|sum; max_v|] — float-array slots keep the
                        per-add accumulation unboxed where mutable
                        float fields in this mixed record would box
                        every store *)
  mutable n : int;
  mutable samples : float array;
  mutable n_samples : int;
  mutable tick : int;
  hist : Obs.Hist.t;
}

let create ?(sample_stride = 16) () =
  if sample_stride < 1 then invalid_arg "Latency.create: bad stride";
  {
    stride = sample_stride;
    acc = [| 0.0; 0.0 |];
    n = 0;
    samples = Array.make 256 0.0;
    n_samples = 0;
    tick = 0;
    hist = Obs.Hist.create ();
  }

let push_sample t v =
  if t.n_samples = Array.length t.samples then begin
    let bigger = Array.make (2 * t.n_samples) 0.0 in
    Array.blit t.samples 0 bigger 0 t.n_samples;
    t.samples <- bigger
  end;
  t.samples.(t.n_samples) <- v;
  t.n_samples <- t.n_samples + 1

let add t v =
  Obs.Hist.observe t.hist v;
  Array.unsafe_set t.acc 0 (Array.unsafe_get t.acc 0 +. v);
  t.n <- t.n + 1;
  if v > Array.unsafe_get t.acc 1 then Array.unsafe_set t.acc 1 v;
  t.tick <- t.tick + 1;
  if t.tick >= t.stride then begin
    t.tick <- 0;
    push_sample t v
  end

let add_many t v k =
  if k > 0 then begin
    Obs.Hist.observe_n t.hist v k;
    Array.unsafe_set t.acc 0 (Array.unsafe_get t.acc 0 +. (v *. float_of_int k));
    t.n <- t.n + k;
    if v > Array.unsafe_get t.acc 1 then Array.unsafe_set t.acc 1 v;
    t.tick <- t.tick + k;
    if t.tick >= t.stride then begin
      (* Keep the reservoir's density: one sample per stride crossed. *)
      let crossings = t.tick / t.stride in
      t.tick <- t.tick mod t.stride;
      for _ = 1 to crossings do
        push_sample t v
      done
    end
  end

(* Fold [src] into [dst] (node-ordered merge of per-node accumulators
   from a serving run).  Reservoir samples append in call order, so
   merging node 0, 1, ... always yields the same reservoir. *)
let merge_into dst src =
  if dst == src then invalid_arg "Latency.merge_into: dst and src must differ";
  Obs.Hist.merge_into dst.hist src.hist;
  dst.acc.(0) <- dst.acc.(0) +. src.acc.(0);
  if src.acc.(1) > dst.acc.(1) then dst.acc.(1) <- src.acc.(1);
  dst.n <- dst.n + src.n;
  for i = 0 to src.n_samples - 1 do
    push_sample dst src.samples.(i)
  done

let count t = t.n
let mean t = if t.n = 0 then 0.0 else t.acc.(0) /. float_of_int t.n
let max_seen t = t.acc.(1)

let percentile t p =
  if t.n_samples = 0 then 0.0
  else begin
    if p < 0.0 || p > 1.0 then invalid_arg "Latency.percentile: p outside [0,1]";
    let sorted = Array.sub t.samples 0 t.n_samples in
    Fsort.sort sorted;
    let idx =
      int_of_float (Float.round (p *. float_of_int (t.n_samples - 1)))
    in
    sorted.(idx)
  end

let histogram t = Obs.Hist.snapshot t.hist
