type t = {
  spec : Spec.t;
  g : Prng.Splitmix.t;
  mutable dropped : int;
  mutable duplicated : int;
  mutable delayed : int;
  mutable blackholed : int;
}

let create (spec : Spec.t) ~seed =
  let seed = Option.value spec.Spec.seed ~default:seed in
  (* Offset the seed so the fault stream is independent of the workload
     generators, which use the scenario seed directly. *)
  {
    spec;
    g = Prng.Splitmix.create (seed lxor 0xFA17_5EED);
    dropped = 0;
    duplicated = 0;
    delayed = 0;
    blackholed = 0;
  }

type verdict = { drop : bool; duplicate : bool; extra_delay_ns : float }

let on_send t ~src:_ ~dst:_ ~tag:_ ~size:_ ~now:_ =
  (* Fixed draw order; p = 0 short-circuits without consuming the
     stream. *)
  let draw p = p > 0.0 && Prng.Splitmix.float t.g 1.0 < p in
  let drop = draw t.spec.Spec.drop_p in
  let duplicate = draw t.spec.Spec.dup_p in
  let extra_delay_ns = if draw t.spec.Spec.delay_p then t.spec.Spec.delay_ns else 0.0 in
  { drop; duplicate; extra_delay_ns }

let crashed t ~node ~now =
  List.exists (fun (n, at) -> n = node && now >= at) t.spec.Spec.crashes

let wire_factor t ~src ~dst =
  if t.spec.Spec.degrade_factor = 1.0 then 1.0
  else
    match t.spec.Spec.degrade_node with
    | None -> t.spec.Spec.degrade_factor
    | Some n when n = src || n = dst -> t.spec.Spec.degrade_factor
    | Some _ -> 1.0

let slow_factor t ~node =
  Option.value (List.assoc_opt node t.spec.Spec.slow) ~default:1.0

let timeout_ns t ~default = Option.value t.spec.Spec.timeout_ns ~default
let retries t = t.spec.Spec.retries
let fallback t = t.spec.Spec.fallback

type stats = {
  dropped : int;
  duplicated : int;
  delayed : int;
  blackholed : int;
}

let note_dropped (t : t) = t.dropped <- t.dropped + 1
let note_duplicated (t : t) = t.duplicated <- t.duplicated + 1
let note_delayed (t : t) = t.delayed <- t.delayed + 1
let note_blackholed (t : t) = t.blackholed <- t.blackholed + 1

let stats (t : t) : stats =
  {
    dropped = t.dropped;
    duplicated = t.duplicated;
    delayed = t.delayed;
    blackholed = t.blackholed;
  }
