type 'a t = {
  eng : Simcore.Engine.t;
  net : 'a Network.t;
  n : int;
  (* Unexpected-message queues, one per rank: messages received from the
     network but not yet matched by a selective recv. *)
  stash : 'a Network.envelope Queue.t array;
  mutable sends : int;
  mutable recvs : int;
  mutable stash_hits : int; (* recvs satisfied from the stash *)
  mutable stashed : int; (* messages parked while waiting for a match *)
  mutable collectives : (string * int) list; (* per-op call counts *)
}

let create ?faults eng profile ~ranks =
  if ranks < 1 then invalid_arg "Mpi.create: need at least one rank";
  {
    eng;
    net = Network.create ?faults eng profile ~nodes:ranks;
    n = ranks;
    stash = Array.init ranks (fun _ -> Queue.create ());
    sends = 0;
    recvs = 0;
    stash_hits = 0;
    stashed = 0;
    collectives = [];
  }

let count_collective t op =
  let rec bump = function
    | [] -> [ (op, 1) ]
    | (name, n) :: rest ->
        if name = op then (name, n + 1) :: rest else (name, n) :: bump rest
  in
  t.collectives <- bump t.collectives

let check_rank t r what =
  if r < 0 || r >= t.n then
    invalid_arg (Printf.sprintf "Mpi.%s: rank %d outside [0,%d)" what r t.n)

let isend t ~src ~dst ?(tag = 0) ~size payload =
  check_rank t src "isend";
  check_rank t dst "isend";
  t.sends <- t.sends + 1;
  Network.isend t.net ~src ~dst ~tag ~size payload

let matches ?source ?tag (env : 'a Network.envelope) =
  (match source with Some s -> env.Network.src = s | None -> true)
  && (match tag with Some tg -> env.Network.tag = tg | None -> true)

(* Look in the stash for the first matching message, preserving the order
   of the others. *)
let take_from_stash t ~rank ?source ?tag () =
  let q = t.stash.(rank) in
  let len = Queue.length q in
  let found = ref None in
  for _ = 1 to len do
    let env = Queue.pop q in
    if !found = None && matches ?source ?tag env then found := Some env
    else Queue.push env q
  done;
  !found

let recv t ~rank ?source ?tag () =
  check_rank t rank "recv";
  t.recvs <- t.recvs + 1;
  match take_from_stash t ~rank ?source ?tag () with
  | Some env ->
      t.stash_hits <- t.stash_hits + 1;
      (env.Network.src, env.Network.tag, env.Network.payload)
  | None ->
      let rec wait () =
        let env = Network.recv t.net ~dst:rank in
        if matches ?source ?tag env then
          (env.Network.src, env.Network.tag, env.Network.payload)
        else begin
          t.stashed <- t.stashed + 1;
          Queue.push env t.stash.(rank);
          wait ()
        end
      in
      wait ()

let recv_timeout t ~rank ?source ?tag ~timeout_ns () =
  check_rank t rank "recv_timeout";
  t.recvs <- t.recvs + 1;
  match take_from_stash t ~rank ?source ?tag () with
  | Some env ->
      t.stash_hits <- t.stash_hits + 1;
      Some (env.Network.src, env.Network.tag, env.Network.payload)
  | None ->
      (* The deadline is absolute: non-matching arrivals are stashed
         without extending the wait. *)
      let deadline = Simcore.Engine.now t.eng +. timeout_ns in
      let rec wait () =
        let remaining = deadline -. Simcore.Engine.now t.eng in
        if remaining <= 0.0 then None
        else
          match Network.recv_timeout t.net ~dst:rank ~timeout_ns:remaining with
          | None -> None
          | Some env ->
              if matches ?source ?tag env then
                Some (env.Network.src, env.Network.tag, env.Network.payload)
              else begin
                t.stashed <- t.stashed + 1;
                Queue.push env t.stash.(rank);
                wait ()
              end
      in
      wait ()

let probe t ~rank ?source ?tag () =
  check_rank t rank "probe";
  (* Drain everything already delivered into the stash, then scan it. *)
  let rec drain () =
    match Network.try_recv t.net ~dst:rank with
    | Some env ->
        Queue.push env t.stash.(rank);
        drain ()
    | None -> ()
  in
  drain ();
  Queue.fold (fun acc env -> acc || matches ?source ?tag env) false
    t.stash.(rank)

(* Tags reserved for the collectives, well away from user tags. *)
let tag_barrier_up = -101
let tag_barrier_down = -102
let tag_bcast = -103
let tag_scatter = -104
let tag_gather = -105
let tag_reduce = -106

let barrier t ~rank ~fill =
  check_rank t rank "barrier";
  count_collective t "barrier";
  if t.n > 1 then
    if rank = 0 then begin
      for _ = 1 to t.n - 1 do
        ignore (recv t ~rank:0 ~tag:tag_barrier_up ())
      done;
      for dst = 1 to t.n - 1 do
        isend t ~src:0 ~dst ~tag:tag_barrier_down ~size:0 fill
      done
    end
    else begin
      isend t ~src:rank ~dst:0 ~tag:tag_barrier_up ~size:0 fill;
      ignore (recv t ~rank ~source:0 ~tag:tag_barrier_down ())
    end

let bcast t ~rank ~root ~size v =
  check_rank t rank "bcast";
  check_rank t root "bcast";
  count_collective t "bcast";
  if t.n = 1 || rank = root then begin
    if rank = root then
      for dst = 0 to t.n - 1 do
        if dst <> root then isend t ~src:root ~dst ~tag:tag_bcast ~size v
      done;
    v
  end
  else begin
    let _, _, payload = recv t ~rank ~source:root ~tag:tag_bcast () in
    payload
  end

let scatter t ~rank ~root ~size parts =
  check_rank t rank "scatter";
  check_rank t root "scatter";
  count_collective t "scatter";
  if rank = root then begin
    if Array.length parts <> t.n then
      invalid_arg "Mpi.scatter: root must provide one element per rank";
    for dst = 0 to t.n - 1 do
      if dst <> root then isend t ~src:root ~dst ~tag:tag_scatter ~size parts.(dst)
    done;
    parts.(root)
  end
  else begin
    let _, _, payload = recv t ~rank ~source:root ~tag:tag_scatter () in
    payload
  end

let gather t ~rank ~root ~size v =
  check_rank t rank "gather";
  check_rank t root "gather";
  count_collective t "gather";
  if rank = root then begin
    let out = Array.make t.n v in
    for _ = 1 to t.n - 1 do
      let src, _, payload = recv t ~rank:root ~tag:tag_gather () in
      out.(src) <- payload
    done;
    out
  end
  else begin
    isend t ~src:rank ~dst:root ~tag:tag_gather ~size v;
    [||]
  end

let reduce t ~rank ~root ~size ~op v =
  check_rank t rank "reduce";
  check_rank t root "reduce";
  count_collective t "reduce";
  if rank = root then begin
    let contributions = Array.make t.n None in
    contributions.(root) <- Some v;
    for _ = 1 to t.n - 1 do
      let src, _, payload = recv t ~rank:root ~tag:tag_reduce () in
      contributions.(src) <- Some payload
    done;
    let acc = ref None in
    Array.iter
      (fun c ->
        match (c, !acc) with
        | Some x, None -> acc := Some x
        | Some x, Some a -> acc := Some (op a x)
        | None, _ -> ())
      contributions;
    !acc
  end
  else begin
    isend t ~src:rank ~dst:root ~tag:tag_reduce ~size v;
    None
  end

let record_metrics t reg =
  Obs.Metrics.incr reg "mpi_sends" t.sends;
  Obs.Metrics.incr reg "mpi_recvs" t.recvs;
  Obs.Metrics.incr reg "mpi_stash_hits" t.stash_hits;
  Obs.Metrics.incr reg "mpi_stashed" t.stashed;
  List.iter
    (fun (op, n) ->
      Obs.Metrics.incr reg ~labels:[ ("op", op) ] "mpi_collectives" n)
    t.collectives;
  Network.record_metrics t.net reg
