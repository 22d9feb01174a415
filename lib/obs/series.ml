(* Fixed-width simulated-time windows.  See series.mli for the model.

   The builder keeps one growable array per per-window counter plus a
   live Hist.t per window; [finish] derives the cumulative gauges
   (queue depth) with a single prefix-sum pass so the builder can be
   finished more than once.  Window indices come from simulated-time
   division only — nothing here reads a clock — so a series built from
   a deterministic simulation is itself deterministic at any worker
   count. *)

type window = {
  index : int;
  t0_ns : float;
  t1_ns : float;
  offered : int;
  completed : int;
  latency : Hist.snapshot;
  violations : int;
  lost : int;
  queue_depth : int;
  busy : (string * float) list;
  gauges : (string * float) list;
  retries : int;
  redispatches : int;
  fallbacks : int;
}

type event = { at_ns : float; label : string }

type t = {
  window_ns : float;
  slo_ns : float;
  budget : float;
  windows : window array;
  events : event list;
}

(* ------------------------------------------------------------------ *)
(* Builder *)

type builder = {
  w_ns : float;
  b_slo_ns : float;
  mutable cap : int;
  mutable n : int;  (* windows in use: 1 + highest touched index *)
  mutable offered : int array;
  mutable completed : int array;
  mutable hist : Hist.t array;
  mutable violations : int array;
  mutable lost : int array;
  mutable retries : int array;
  mutable redispatches : int array;
  mutable fallbacks : int array;
  busy : (string, float array) Hashtbl.t;  (* arrays of length [cap] *)
  g_samples : (string, (float * float) list ref) Hashtbl.t;
      (* gauge lane -> (at, value) samples, reverse recording order *)
  mutable events : event list;  (* reverse recording order *)
}

(* The SLO violation-rate budget: 1% of arrivals may finish over the
   SLO. *)
let budget = 0.01

let builder ~window_ns ~slo_ns ?horizon_ns () =
  if not (window_ns > 0.0) then
    invalid_arg "Series.builder: window_ns must be positive";
  if not (slo_ns > 0.0) then
    invalid_arg "Series.builder: slo_ns must be positive";
  let n =
    match horizon_ns with
    | None -> 0
    | Some h ->
        if not (h >= 0.0) then
          invalid_arg "Series.builder: horizon_ns must be >= 0";
        int_of_float (Float.ceil (h /. window_ns))
  in
  let cap = max 16 n in
  {
    w_ns = window_ns;
    b_slo_ns = slo_ns;
    cap;
    n;
    offered = Array.make cap 0;
    completed = Array.make cap 0;
    hist = Array.init cap (fun _ -> Hist.create ());
    violations = Array.make cap 0;
    lost = Array.make cap 0;
    retries = Array.make cap 0;
    redispatches = Array.make cap 0;
    fallbacks = Array.make cap 0;
    busy = Hashtbl.create 8;
    g_samples = Hashtbl.create 8;
    events = [];
  }

let grow_int a cap = Array.init cap (fun i -> if i < Array.length a then a.(i) else 0)

let grow_float a cap =
  Array.init cap (fun i -> if i < Array.length a then a.(i) else 0.0)

(* Make index [i] addressable.  Reallocates every per-window array, so
   callers must re-fetch lane arrays after calling this. *)
let ensure b i =
  if i >= b.cap then begin
    let cap = ref b.cap in
    while i >= !cap do
      cap := !cap * 2
    done;
    let cap = !cap in
    b.offered <- grow_int b.offered cap;
    b.completed <- grow_int b.completed cap;
    b.hist <-
      Array.init cap (fun j ->
          if j < b.cap then b.hist.(j) else Hist.create ());
    b.violations <- grow_int b.violations cap;
    b.lost <- grow_int b.lost cap;
    b.retries <- grow_int b.retries cap;
    b.redispatches <- grow_int b.redispatches cap;
    b.fallbacks <- grow_int b.fallbacks cap;
    Hashtbl.iter
      (fun lane a -> Hashtbl.replace b.busy lane (grow_float a cap))
      (Hashtbl.copy b.busy);
    b.cap <- cap
  end;
  if i >= b.n then b.n <- i + 1

(* [floor (at / width)], clamped to window 0 for stray negatives so a
   slightly-before-zero timestamp cannot index out of bounds. *)
let index_of b at =
  let i = int_of_float (Float.floor (at /. b.w_ns)) in
  if i < 0 then 0 else i

let note_arrival b ~at =
  let i = index_of b at in
  ensure b i;
  b.offered.(i) <- b.offered.(i) + 1

let note_delivery b ~arrived ~finished =
  let i = index_of b finished in
  ensure b i;
  b.completed.(i) <- b.completed.(i) + 1;
  let latency = finished -. arrived in
  Hist.observe b.hist.(i) latency;
  if latency > b.b_slo_ns then b.violations.(i) <- b.violations.(i) + 1

let note_lost b ~at =
  let i = index_of b at in
  ensure b i;
  b.lost.(i) <- b.lost.(i) + 1;
  b.violations.(i) <- b.violations.(i) + 1

let note_busy b ~lane ~t0 ~t1 =
  if t1 > t0 then begin
    ensure b (index_of b t1);
    if not (Hashtbl.mem b.busy lane) then
      Hashtbl.replace b.busy lane (Array.make b.cap 0.0);
    let i = ref (index_of b t0) in
    let cur = ref (Float.max t0 0.0) in
    while !cur < t1 do
      let w_end = float_of_int (!i + 1) *. b.w_ns in
      let seg_end = Float.min t1 w_end in
      ensure b !i;
      let a = Hashtbl.find b.busy lane in
      a.(!i) <- a.(!i) +. (seg_end -. !cur);
      cur := seg_end;
      incr i
    done
  end

(* [get] is re-applied after [ensure]: growth reallocates the arrays,
   so a reference taken before it would be stale. *)
let bump get b ~at n =
  let i = index_of b at in
  ensure b i;
  let arr = get b in
  arr.(i) <- arr.(i) + n

let note_gauge b ~lane ~at v =
  ensure b (index_of b at);
  let samples =
    match Hashtbl.find_opt b.g_samples lane with
    | Some r -> r
    | None ->
        let r = ref [] in
        Hashtbl.replace b.g_samples lane r;
        r
  in
  samples := (at, v) :: !samples

let note_retry b ~at ?(n = 1) () = bump (fun b -> b.retries) b ~at n
let note_redispatch b ~at ?(n = 1) () = bump (fun b -> b.redispatches) b ~at n
let note_fallback b ~at ?(n = 1) () = bump (fun b -> b.fallbacks) b ~at n
let note_event b ~at ~label = b.events <- { at_ns = at; label } :: b.events

let finish b =
  let n = b.n in
  let lanes =
    Hashtbl.fold (fun lane _ acc -> lane :: acc) b.busy []
    |> List.sort String.compare
  in
  (* Gauge lanes are boundary samples carried forward: window [i] holds
     the last value sampled before its end (0. before the first
     sample). *)
  let g_values =
    Hashtbl.fold (fun lane _ acc -> lane :: acc) b.g_samples []
    |> List.sort String.compare
    |> List.map (fun lane ->
           let samples =
             List.stable_sort
               (fun (a, _) (b, _) -> Float.compare a b)
               (List.rev !(Hashtbl.find b.g_samples lane))
           in
           let out = Array.make (max 1 b.n) 0.0 in
           let cur = ref 0.0 and rest = ref samples in
           for i = 0 to b.n - 1 do
             let t1 = float_of_int (i + 1) *. b.w_ns in
             let continue = ref true in
             while !continue do
               match !rest with
               | (at, v) :: tl when at < t1 ->
                   cur := v;
                   rest := tl
               | _ -> continue := false
             done;
             out.(i) <- !cur
           done;
           (lane, out))
  in
  let in_system = ref 0 in
  let windows =
    Array.init n (fun i ->
        in_system := !in_system + b.offered.(i) - b.completed.(i) - b.lost.(i);
        {
          index = i;
          t0_ns = float_of_int i *. b.w_ns;
          t1_ns = float_of_int (i + 1) *. b.w_ns;
          offered = b.offered.(i);
          completed = b.completed.(i);
          latency = Hist.snapshot b.hist.(i);
          violations = b.violations.(i);
          lost = b.lost.(i);
          queue_depth = !in_system;
          busy =
            List.map (fun lane -> (lane, (Hashtbl.find b.busy lane).(i))) lanes;
          gauges = List.map (fun (lane, arr) -> (lane, arr.(i))) g_values;
          retries = b.retries.(i);
          redispatches = b.redispatches.(i);
          fallbacks = b.fallbacks.(i);
        })
  in
  let events =
    List.stable_sort
      (fun a b -> Float.compare a.at_ns b.at_ns)
      (List.rev b.events)
  in
  {
    window_ns = b.w_ns;
    slo_ns = b.b_slo_ns;
    budget;
    windows;
    events;
  }

(* ------------------------------------------------------------------ *)
(* Derived readings *)

let per_second t count = float_of_int count /. (t.window_ns /. 1e9)
let offered_qps t (w : window) = per_second t w.offered
let achieved_qps t (w : window) = per_second t w.completed

(* Violations are pinned by resolution time (delivery or loss), so the
   rate normalizes by the traffic resolved in the window — during a
   post-saturation drain the arrivals are long gone but the burn is
   real. *)
let violation_rate (w : window) =
  let resolved = w.completed + w.lost in
  if resolved = 0 then 0.0
  else float_of_int w.violations /. float_of_int resolved

let burn_rate t w = violation_rate w /. t.budget

let lanes t =
  match t.windows with
  | [||] -> []
  | ws -> List.map fst ws.(0).busy

let gauge_lanes t =
  match t.windows with
  | [||] -> []
  | ws -> List.map fst ws.(0).gauges

let knee t =
  let n = Array.length t.windows in
  let rec go i =
    if i >= n then None
    else
      let w = t.windows.(i) and p = t.windows.(i - 1) in
      if
        w.queue_depth > p.queue_depth
        && w.queue_depth > max 2 (w.offered / 8)
        && float_of_int w.completed <= 1.05 *. float_of_int p.completed
      then Some i
      else go (i + 1)
  in
  if n < 2 then None else go 1

(* ------------------------------------------------------------------ *)
(* Rebin algebra *)

let assoc_merge a b =
  (* Both lists are sorted by key with (in practice) identical key
     sets; handle ragged inputs anyway so rebin never depends on it. *)
  let rec go a b =
    match (a, b) with
    | [], rest | rest, [] -> rest
    | (ka, va) :: ta, (kb, vb) :: tb ->
        let c = String.compare ka kb in
        if c = 0 then (ka, va +. vb) :: go ta tb
        else if c < 0 then (ka, va) :: go ta b
        else (kb, vb) :: go a tb
  in
  go a b

let rebin t ~factor =
  if factor < 1 then invalid_arg "Series.rebin: factor must be >= 1";
  if factor = 1 then t
  else
    let n = Array.length t.windows in
    let m = (n + factor - 1) / factor in
    let w_ns = t.window_ns *. float_of_int factor in
    let windows =
      Array.init m (fun j ->
          let lo = j * factor and hi = min n ((j + 1) * factor) in
          let fold f init =
            let acc = ref init in
            for i = lo to hi - 1 do
              acc := f !acc t.windows.(i)
            done;
            !acc
          in
          let sum get = fold (fun a w -> a + get w) 0 in
          {
            index = j;
            t0_ns = float_of_int j *. w_ns;
            t1_ns = float_of_int (j + 1) *. w_ns;
            offered = sum (fun w -> w.offered);
            completed = sum (fun w -> w.completed);
            latency = fold (fun a w -> Hist.merge a w.latency) Hist.empty;
            violations = sum (fun w -> w.violations);
            lost = sum (fun w -> w.lost);
            queue_depth = t.windows.(hi - 1).queue_depth;
            busy = fold (fun a w -> assoc_merge a w.busy) [];
            gauges = t.windows.(hi - 1).gauges;
            retries = sum (fun w -> w.retries);
            redispatches = sum (fun w -> w.redispatches);
            fallbacks = sum (fun w -> w.fallbacks);
          })
    in
    { t with window_ns = w_ns; windows }

(* ------------------------------------------------------------------ *)
(* Export *)

let window_json t w =
  let p50, p95, p99 = Hist.quantiles w.latency in
  (* Gauge lanes appear only when something was sampled, so series
     without gauges export exactly as before. *)
  let gauges =
    if w.gauges = [] then []
    else
      [
        ( "gauges",
          Json.Obj (List.map (fun (l, v) -> (l, Json.Float v)) w.gauges) );
      ]
  in
  Json.Obj
    ([
      ("index", Json.Int w.index);
      ("t0_ns", Json.Float w.t0_ns);
      ("t1_ns", Json.Float w.t1_ns);
      ("offered", Json.Int w.offered);
      ("completed", Json.Int w.completed);
      ("offered_qps", Json.Float (offered_qps t w));
      ("achieved_qps", Json.Float (achieved_qps t w));
      ("mean_ns", Json.Float (Hist.mean w.latency));
      ("p50_ns", Json.Float p50);
      ("p95_ns", Json.Float p95);
      ("p99_ns", Json.Float p99);
      ("max_ns", Json.Float (if w.latency.Hist.count = 0 then 0.0 else w.latency.Hist.max_v));
      ("queue_depth", Json.Int w.queue_depth);
      ("busy_ns", Json.Obj (List.map (fun (l, v) -> (l, Json.Float v)) w.busy));
    ]
    @ gauges
    @ [
        ("violations", Json.Int w.violations);
        ("burn_rate", Json.Float (burn_rate t w));
        ("lost", Json.Int w.lost);
        ("retries", Json.Int w.retries);
        ("redispatches", Json.Int w.redispatches);
        ("fallbacks", Json.Int w.fallbacks);
      ])

let to_json t =
  let gauge_lane_field =
    match gauge_lanes t with
    | [] -> []
    | ls ->
        [ ("gauge_lanes", Json.List (List.map (fun l -> Json.String l) ls)) ]
  in
  Json.Obj
    ([
      ("window_ns", Json.Float t.window_ns);
      ("slo_ns", Json.Float t.slo_ns);
      ("budget", Json.Float t.budget);
      ("lanes", Json.List (List.map (fun l -> Json.String l) (lanes t)));
    ]
    @ gauge_lane_field
    @ [
      ( "knee_window",
        match knee t with None -> Json.Null | Some i -> Json.Int i );
      ( "windows",
        Json.List (Array.to_list (Array.map (window_json t) t.windows)) );
      ( "events",
        Json.List
          (List.map
             (fun e ->
               Json.Obj
                 [
                   ("at_ns", Json.Float e.at_ns);
                   ("label", Json.String e.label);
                 ])
             t.events) );
    ])
