type t = {
  capacity : int;
  mutable available : int;
  waiters : (unit -> unit) Queue.t;
  mutable busy_ns : float; (* accumulated time with >= 1 unit held *)
  mutable busy_since : float; (* valid when held > 0 *)
}

let create capacity =
  if capacity < 1 then invalid_arg "Resource.create: capacity must be >= 1";
  {
    capacity;
    available = capacity;
    waiters = Queue.create ();
    busy_ns = 0.0;
    busy_since = 0.0;
  }

let held t = t.capacity - t.available

let note_take t now =
  if held t = 0 then t.busy_since <- now;
  t.available <- t.available - 1

let note_give t now =
  t.available <- t.available + 1;
  if held t = 0 then t.busy_ns <- t.busy_ns +. (now -. t.busy_since)

let acquire engine t =
  if t.available > 0 then note_take t (Engine.now engine)
  else Engine.suspend (fun _eng resume -> Queue.push resume t.waiters)

let release engine t =
  if held t <= 0 then invalid_arg "Resource.release: not held";
  match Queue.take_opt t.waiters with
  | Some resume ->
      (* Direct hand-off: the unit passes to the waiter without becoming
         available, so no third process can steal it in between and the
         busy interval continues uninterrupted. *)
      Engine.schedule_now engine resume
  | None -> note_give t (Engine.now engine)

let with_resource engine t f =
  acquire engine t;
  match f () with
  | v ->
      release engine t;
      v
  | exception exn ->
      release engine t;
      raise exn

let busy_ns t ~now =
  let in_progress = if held t > 0 then now -. t.busy_since else 0.0 in
  t.busy_ns +. in_progress

let utilization t ~now =
  if now <= 0.0 then 0.0 else busy_ns t ~now /. now
