type t = {
  mutable now : float;
  mutable seq : int;
  queue : (unit -> unit) Pqueue.t;
  mutable events : int;
  mutable spawned : int;
  mutable live : int;
  mutable max_heap : int;
  mutable failure : (string * exn) option;
}

exception Process_failure of string * exn

(* The single effect of the engine: the payload is given the engine and a
   resume thunk and decides where to park the continuation. *)
type _ Effect.t += Suspend : (t -> (unit -> unit) -> unit) -> unit Effect.t

let create () =
  {
    now = 0.0;
    seq = 0;
    queue = Pqueue.create ();
    events = 0;
    spawned = 0;
    live = 0;
    max_heap = 0;
    failure = None;
  }

let now t = t.now
let events_executed t = t.events
let processes_spawned t = t.spawned
let processes_live t = t.live

let schedule_at t time f =
  if time < t.now then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: time %g is before now %g" time t.now);
  let seq = t.seq in
  t.seq <- seq + 1;
  Pqueue.push t.queue ~time ~seq f;
  let depth = Pqueue.length t.queue in
  if depth > t.max_heap then t.max_heap <- depth

let schedule_after t dt f = schedule_at t (t.now +. dt) f
let schedule_now t f = schedule_at t t.now f

let suspend park = Effect.perform (Suspend park)

let delay _t dt =
  if dt < 0.0 then invalid_arg "Engine.delay: negative duration";
  if dt > 0.0 then suspend (fun eng resume -> schedule_after eng dt resume)

let spawn t ?(name = "anon") body =
  t.spawned <- t.spawned + 1;
  t.live <- t.live + 1;
  let handler : (unit, unit) Effect.Deep.handler =
    {
      retc = (fun () -> t.live <- t.live - 1);
      exnc =
        (fun exn ->
          t.live <- t.live - 1;
          if t.failure = None then t.failure <- Some (name, exn));
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Suspend park ->
              Some
                (fun (k : (a, unit) Effect.Deep.continuation) ->
                  park t (fun () -> Effect.Deep.continue k ()))
          | _ -> None);
    }
  in
  schedule_now t (fun () -> Effect.Deep.match_with body () handler)

let check_failure t =
  match t.failure with
  | Some (name, exn) ->
      t.failure <- None;
      raise (Process_failure (name, exn))
  | None -> ()

let step t =
  if Pqueue.is_empty t.queue then false
  else begin
    (* No option/tuple per event: read the head time, then pop just the
       payload. *)
    t.now <- Pqueue.top_time t.queue;
    t.events <- t.events + 1;
    let f = Pqueue.pop_payload t.queue in
    f ();
    check_failure t;
    true
  end

let run t = while step t do () done

let record_metrics t reg =
  Obs.Metrics.incr reg "engine_events_executed" t.events;
  Obs.Metrics.incr reg "engine_processes_spawned" t.spawned;
  Obs.Metrics.gauge reg "engine_max_heap_depth" (float_of_int t.max_heap);
  Obs.Metrics.gauge reg "engine_now_ns" t.now

let run_until t horizon =
  let continue = ref true in
  while !continue do
    if Pqueue.is_empty t.queue || Pqueue.top_time t.queue > horizon then
      continue := false
    else ignore (step t)
  done;
  if t.now < horizon then t.now <- horizon
