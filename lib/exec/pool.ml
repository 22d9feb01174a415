(* Work-stealing-free work queue: one cursor per batch, guarded by the
   pool mutex.  Tasks are coarse (whole simulations), so contention on
   the cursor is negligible; what matters is that result placement is by
   submission index, never by completion order. *)

type batch = {
  run_task : int -> unit;  (* must not raise; stores its own result *)
  n : int;
  mutable next : int;       (* first unclaimed task index *)
  mutable completed : int;
  id : int;                 (* lets a worker skip a batch it has drained *)
}

(* Host-side wall-clock accounting, process-global and mutex-guarded:
   every batch run through a pool (or through [run ~jobs:1]'s inline
   path) adds to these.  Wall times are real seconds, so they are
   inherently nondeterministic — consumers surface them only in
   non-reproducible output (see Obs.Manifest.reproducible). *)
type host_stats = {
  batches : int;
  tasks : int;
  task_wall_s : float;  (* summed per-task wall time *)
  batch_wall_s : float; (* summed end-to-end batch wall time *)
  max_task_wall_s : float;
  max_workers : int;    (* widest pool observed *)
}

let zero_host_stats =
  {
    batches = 0;
    tasks = 0;
    task_wall_s = 0.0;
    batch_wall_s = 0.0;
    max_task_wall_s = 0.0;
    max_workers = 0;
  }

let stats_mutex = Mutex.create ()
let stats = ref zero_host_stats

let note_task dt =
  Mutex.lock stats_mutex;
  let s = !stats in
  stats :=
    {
      s with
      tasks = s.tasks + 1;
      task_wall_s = s.task_wall_s +. dt;
      max_task_wall_s = Float.max s.max_task_wall_s dt;
    };
  Mutex.unlock stats_mutex

let note_batch ~workers dt =
  Mutex.lock stats_mutex;
  let s = !stats in
  stats :=
    {
      s with
      batches = s.batches + 1;
      batch_wall_s = s.batch_wall_s +. dt;
      max_workers = max s.max_workers workers;
    };
  Mutex.unlock stats_mutex

let host_stats () =
  Mutex.lock stats_mutex;
  let s = !stats in
  Mutex.unlock stats_mutex;
  s

let reset_host_stats () =
  Mutex.lock stats_mutex;
  stats := zero_host_stats;
  Mutex.unlock stats_mutex

type t = {
  n_jobs : int;
  mutex : Mutex.t;
  work_ready : Condition.t;  (* new batch installed, or shutdown *)
  batch_done : Condition.t;  (* last task of the batch completed *)
  mutable batch : batch option;
  mutable next_batch_id : int;
  mutable stop : bool;
  mutable domains : unit Domain.t list;
}

let jobs t = t.n_jobs

(* Claim task indices until the batch cursor is exhausted.  The task
   body runs outside the lock. *)
let drain t (b : batch) =
  let rec loop () =
    if b.next < b.n then begin
      let i = b.next in
      b.next <- i + 1;
      Mutex.unlock t.mutex;
      b.run_task i;
      Mutex.lock t.mutex;
      b.completed <- b.completed + 1;
      if b.completed = b.n then Condition.broadcast t.batch_done;
      loop ()
    end
  in
  loop ()

let worker t =
  Mutex.lock t.mutex;
  let last_seen = ref (-1) in
  let rec loop () =
    if t.stop then ()
    else
      match t.batch with
      | Some b when b.id > !last_seen && b.next < b.n ->
          drain t b;
          last_seen := b.id;
          loop ()
      | _ ->
          Condition.wait t.work_ready t.mutex;
          loop ()
  in
  loop ();
  Mutex.unlock t.mutex

let create ~jobs =
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  let t =
    {
      n_jobs = jobs;
      mutex = Mutex.create ();
      work_ready = Condition.create ();
      batch_done = Condition.create ();
      batch = None;
      next_batch_id = 0;
      stop = false;
      domains = [];
    }
  in
  t.domains <- List.init jobs (fun _ -> Domain.spawn (fun () -> worker t));
  t

let shutdown t =
  Mutex.lock t.mutex;
  t.stop <- true;
  Condition.broadcast t.work_ready;
  Mutex.unlock t.mutex;
  let ds = t.domains in
  t.domains <- [];
  List.iter Domain.join ds

let with_pool ~jobs f =
  let t = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

type ('a, 'b) slot =
  | Empty
  | Value of 'b
  | Raised of exn * Printexc.raw_backtrace

let map t ~f xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    let slots = Array.make n Empty in
    let run_task i =
      let t0 = Unix.gettimeofday () in
      slots.(i) <-
        (try Value (f xs.(i))
         with e -> Raised (e, Printexc.get_raw_backtrace ()));
      note_task (Unix.gettimeofday () -. t0)
    in
    let b0 = Unix.gettimeofday () in
    Mutex.lock t.mutex;
    let b =
      { run_task; n; next = 0; completed = 0; id = t.next_batch_id }
    in
    t.next_batch_id <- t.next_batch_id + 1;
    t.batch <- Some b;
    Condition.broadcast t.work_ready;
    while b.completed < b.n do
      Condition.wait t.batch_done t.mutex
    done;
    t.batch <- None;
    Mutex.unlock t.mutex;
    note_batch ~workers:t.n_jobs (Unix.gettimeofday () -. b0);
    Array.map
      (function
        | Value v -> v
        | Raised (e, bt) -> Printexc.raise_with_backtrace e bt
        | Empty -> assert false)
      slots
  end

let run ~jobs thunks =
  match thunks with
  | [] -> []
  | _ when jobs <= 1 || List.compare_length_with thunks 1 = 0 ->
      let b0 = Unix.gettimeofday () in
      let results =
        List.map
          (fun f ->
            let t0 = Unix.gettimeofday () in
            let v = f () in
            note_task (Unix.gettimeofday () -. t0);
            v)
          thunks
      in
      note_batch ~workers:1 (Unix.gettimeofday () -. b0);
      results
  | _ ->
      let arr = Array.of_list thunks in
      with_pool ~jobs:(min jobs (Array.length arr)) (fun t ->
          Array.to_list (map t ~f:(fun f -> f ()) arr))
