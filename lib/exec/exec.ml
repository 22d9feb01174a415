let default_jobs () = max 1 (Domain.recommended_domain_count () - 1)

type host_stats = {
  batches : int;
  tasks : int;
  task_wall_s : float;
  batch_wall_s : float;
  max_task_wall_s : float;
  max_workers : int;
}

(* Sweeps may be started from any domain, so the process-global totals
   are guarded. *)
let stats_mutex = Mutex.create ()

let stats =
  ref
    {
      batches = 0;
      tasks = 0;
      task_wall_s = 0.0;
      batch_wall_s = 0.0;
      max_task_wall_s = 0.0;
      max_workers = 0;
    }

let host_stats () = Mutex.protect stats_mutex (fun () -> !stats)

let note ~workers ~batch_wall_s task_walls =
  Mutex.protect stats_mutex (fun () ->
      let s = !stats in
      stats :=
        {
          batches = s.batches + 1;
          tasks = s.tasks + Array.length task_walls;
          task_wall_s = Array.fold_left ( +. ) s.task_wall_s task_walls;
          batch_wall_s = s.batch_wall_s +. batch_wall_s;
          max_task_wall_s =
            Array.fold_left Float.max s.max_task_wall_s task_walls;
          max_workers = max s.max_workers workers;
        })

let sweep ~jobs f keys =
  let keys = Array.of_list keys in
  let n = Array.length keys in
  if n = 0 then []
  else begin
    let results = Array.make n None in
    let walls = Array.make n 0.0 in
    (* A raising cell stores its exception, so every cell runs whatever
       the others do. *)
    let run i =
      let t0 = Unix.gettimeofday () in
      results.(i) <-
        Some
          (match f keys.(i) with
          | v -> Ok v
          | exception e -> Error (e, Printexc.get_raw_backtrace ()));
      walls.(i) <- Unix.gettimeofday () -. t0
    in
    let b0 = Unix.gettimeofday () in
    let workers = if jobs <= 1 then 1 else min jobs n in
    if workers = 1 then for i = 0 to n - 1 do run i done
    else begin
      let next = Atomic.make 0 in
      let rec claim () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          run i;
          claim ()
        end
      in
      (* Joining publishes the workers' writes to [results] and
         [walls]. *)
      List.iter Domain.join (List.init workers (fun _ -> Domain.spawn claim))
    end;
    note ~workers ~batch_wall_s:(Unix.gettimeofday () -. b0) walls;
    List.init n (fun i ->
        match results.(i) with
        | Some (Ok v) -> (keys.(i), v)
        | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
        | None -> assert false)
  end
