type cell = { mutable ns : float; mutable events : int }
type entry = { path : string list; ns : float; events : int }

type t = {
  cells : (string list, cell) Hashtbl.t;
  tail : Tail.t;
  mutable total : float option;
  (* The residual is a hi+lo pair: when its magnitude exceeds the
     total's (heavy parallel overlap), one ulp of [residual] moves
     [leaf_sum + residual] by more than one ulp of the total, so no
     single float can make the fold land exactly — the low-order term
     absorbs that last rounding step. *)
  mutable residual : float;
  mutable residual_lo : float;
}

let residual_path = [ "(unattributed)" ]

let create ?(tail_k = 8) () =
  {
    cells = Hashtbl.create 64;
    tail = Tail.create ~k:tail_k;
    total = None;
    residual = 0.0;
    residual_lo = 0.0;
  }

let tail t = t.tail

(* ------------------------------------------------------------------ *)
(* Ambient recorder — one slot per domain, exactly like Simcore.Trace:
   sweep workers each record into their own run's profiler without any
   shared mutable state. *)

let ambient : t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let with_recording t f =
  let slot = Domain.DLS.get ambient in
  let saved = !slot in
  slot := Some t;
  Fun.protect ~finally:(fun () -> slot := saved) f

let current () = !(Domain.DLS.get ambient)

(* ------------------------------------------------------------------ *)
(* Charging *)

let charge t ~path ns =
  if path = [] then invalid_arg "Profile.charge: empty path";
  if path = residual_path then
    invalid_arg "Profile.charge: \"(unattributed)\" is reserved";
  match Hashtbl.find_opt t.cells path with
  | Some c ->
      c.ns <- c.ns +. ns;
      c.events <- c.events + 1
  | None -> Hashtbl.add t.cells path { ns; events = 1 }

(* ------------------------------------------------------------------ *)
(* Conservation *)

let compare_path = List.compare String.compare

let entries t =
  Hashtbl.fold
    (fun path (c : cell) acc ->
      { path; ns = c.ns; events = c.events } :: acc)
    t.cells []
  |> List.sort (fun a b -> compare_path a.path b.path)

(* The one canonical summation order: leaves sorted by path, residual
   last.  [finalize] solves for the residual under this exact fold, and
   [attributed_ns] replays it, so conservation is a bit-for-bit float
   identity rather than an approximate one. *)
let leaf_sum t =
  List.fold_left (fun acc e -> acc +. e.ns) 0.0 (entries t)

let finalize t ~total_ns =
  if not (Float.is_finite total_ns) then
    invalid_arg "Profile.finalize: total_ns must be finite";
  (match t.total with
  | Some _ -> invalid_arg "Profile.finalize: already finalized"
  | None -> ());
  let s = leaf_sum t in
  (* Solve (s +. r) +. lo == total_ns.  The high term alone can be off
     by a final rounding step when ulp(r) > ulp(total) — no single
     float r then makes s +. r land exactly.  But d = s +. r is within
     a couple of ulps of the total, so total -. d is exact (Sterbenz),
     and adding it back lands exactly: (d +. (total -. d)) = total.
     The nudge loop is belt-and-braces for denormal-range corners;
     [conserved] re-checks the identity downstream either way. *)
  let r = total_ns -. s in
  let d = s +. r in
  let lo = ref (total_ns -. d) in
  let steps = ref 0 in
  while d +. !lo <> total_ns && !steps < 64 do
    let err = total_ns -. (d +. !lo) in
    let lo' = !lo +. err in
    if lo' <> !lo then lo := lo'
    else
      lo := (if d +. !lo < total_ns then Float.succ !lo else Float.pred !lo);
    incr steps
  done;
  t.residual <- r;
  t.residual_lo <- !lo;
  t.total <- Some total_ns

let finalized t = t.total <> None

(* For display: the lo term is sub-ulp noise, fold it in. *)
let residual_ns t = t.residual +. t.residual_lo
let attributed_ns t = (leaf_sum t +. t.residual) +. t.residual_lo

let conserved t =
  match t.total with
  | None -> false
  | Some total ->
      let a = attributed_ns t in
      (* Structural equality distinguishes 0.0 from -0.0 but those are
         still the same attributed quantity; compare as numbers. *)
      a = total

(* ------------------------------------------------------------------ *)
(* Rendering *)

let fmt_ns = Tail.fmt_ns

type node = {
  mutable n_ns : float;
  mutable n_events : int;
  children : (string, node) Hashtbl.t;
}

let fresh_node () = { n_ns = 0.0; n_events = 0; children = Hashtbl.create 8 }

let build_tree t =
  let root = fresh_node () in
  let add e =
    let rec go node = function
      | [] ->
          node.n_ns <- node.n_ns +. e.ns;
          node.n_events <- node.n_events + e.events
      | name :: rest ->
          node.n_ns <- node.n_ns +. e.ns;
          node.n_events <- node.n_events + e.events;
          let child =
            match Hashtbl.find_opt node.children name with
            | Some c -> c
            | None ->
                let c = fresh_node () in
                Hashtbl.add node.children name c;
                c
          in
          go child rest
    in
    go root e.path
  in
  List.iter add (entries t);
  let res = residual_ns t in
  if res <> 0.0 then add { path = residual_path; ns = res; events = 0 };
  root

let render ?label t =
  let buf = Buffer.create 512 in
  let total =
    match t.total with Some x -> x | None -> attributed_ns t
  in
  let pct ns = if total = 0.0 then 0.0 else 100.0 *. ns /. total in
  (match label with
  | Some l -> Buffer.add_string buf (Printf.sprintf "cost attribution — %s\n" l)
  | None -> Buffer.add_string buf "cost attribution\n");
  Buffer.add_string buf
    (Printf.sprintf "total %s%s\n" (fmt_ns total)
       (if finalized t then
          Printf.sprintf " (= raw simulated time; residual %s)"
            (fmt_ns (residual_ns t))
        else " (not finalized)"));
  let root = build_tree t in
  let sorted_children node =
    Hashtbl.fold (fun name c acc -> (name, c) :: acc) node.children []
    |> List.sort (fun (na, a) (nb, b) ->
           match compare b.n_ns a.n_ns with
           | 0 -> String.compare na nb
           | c -> c)
  in
  let rec pr depth (name, node) =
    let indent = String.make (2 * depth) ' ' in
    let events =
      if node.n_events > 0 && Hashtbl.length node.children = 0 then
        Printf.sprintf "  %9d ev" node.n_events
      else ""
    in
    Buffer.add_string buf
      (Printf.sprintf "%s%-*s %12s  %5.1f%%%s\n" indent
         (max 1 (28 - (2 * depth)))
         name (fmt_ns node.n_ns) (pct node.n_ns) events);
    List.iter (pr (depth + 1)) (sorted_children node)
  in
  List.iter (pr 1) (sorted_children root);
  let tail_text = Tail.render t.tail in
  if tail_text <> "" then begin
    Buffer.add_char buf '\n';
    Buffer.add_string buf tail_text
  end;
  Buffer.contents buf

(* Collapsed-stack format: "frame;frame;frame <count>".  Frames must not
   contain ';' or whitespace, and counts are integers, so paths are
   sanitized and nanoseconds rounded. *)
let sanitize_frame s =
  String.map (function ' ' | ';' | '\t' | '\n' -> '_' | c -> c) s

let folded_lines ?prefix t =
  let pre = match prefix with None -> [] | Some p -> [ p ] in
  let line path ns =
    let frames = List.map sanitize_frame (pre @ path) in
    Printf.sprintf "%s %.0f" (String.concat ";" frames) ns
  in
  let leaves =
    List.filter_map
      (fun e -> if Float.abs e.ns >= 0.5 then Some (line e.path e.ns) else None)
      (entries t)
  in
  (* A negative residual (attributed busy time exceeding wall time is
     real parallel overlap) cannot be expressed as a stack sample;
     emit only a positive one. *)
  let res = residual_ns t in
  if res >= 0.5 then leaves @ [ line residual_path res ] else leaves
