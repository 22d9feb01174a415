exception Closed

(* A blocked receiver is represented by a callback that either delivers a
   value or signals closure; the callback reschedules the suspended
   process through the engine so wake-ups keep the global event order.
   The callback returns [false] when the receiver has already settled
   (it timed out in {!recv_timeout}), in which case [send] offers the
   value to the next waiter instead of losing it. *)
type 'a waiter = Deliver of 'a | Chan_closed

type 'a t = {
  items : 'a Queue.t;
  readers : ('a waiter -> bool) Queue.t;
  mutable closed : bool;
}

let create () =
  { items = Queue.create (); readers = Queue.create (); closed = false }

let send t v =
  if t.closed then raise Closed;
  let rec offer () =
    match Queue.take_opt t.readers with
    | None -> Queue.push v t.items
    | Some wake -> if not (wake (Deliver v)) then offer ()
  in
  offer ()

let recv engine t =
  match Queue.take_opt t.items with
  | Some v -> v
  | None ->
      if t.closed then raise Closed;
      let cell = ref None in
      Engine.suspend (fun eng resume ->
          let wake outcome =
            cell := Some outcome;
            Engine.schedule_now eng resume;
            true
          in
          Queue.push wake t.readers);
      ignore engine;
      (match !cell with
      | Some (Deliver v) -> v
      | Some Chan_closed -> raise Closed
      | None -> assert false)

let recv_timeout engine t ~timeout_ns =
  match Queue.take_opt t.items with
  | Some v -> Some v
  | None ->
      if t.closed then raise Closed;
      let cell = ref None in
      Engine.suspend (fun eng resume ->
          (* [settled] arbitrates between delivery and the timer; the
             loser is a no-op.  A timed-out waiter stays in [readers]
             until a later [send] pops and discards it. *)
          let settled = ref false in
          let wake outcome =
            if !settled then false
            else begin
              settled := true;
              cell := Some outcome;
              Engine.schedule_now eng resume;
              true
            end
          in
          Queue.push wake t.readers;
          Engine.schedule_after eng timeout_ns (fun () ->
              if not !settled then begin
                settled := true;
                Engine.schedule_now eng resume
              end));
      ignore engine;
      (match !cell with
      | Some (Deliver v) -> Some v
      | Some Chan_closed -> raise Closed
      | None -> None)

let close _engine t =
  if not t.closed then begin
    t.closed <- true;
    (* Buffered items stay receivable; only waiting readers (necessarily on
       an empty buffer) observe closure. *)
    Queue.iter (fun wake -> ignore (wake Chan_closed)) t.readers;
    Queue.clear t.readers
  end
