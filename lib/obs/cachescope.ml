(* Cache microscope: per-node, per-level classification of the access
   stream the simulated hierarchy sees.

   One Reuse tracker per level doubles as the shadow fully-associative
   LRU of the 3C classification (a miss with stack distance under the
   capacity in lines would have hit fully-associatively, hence
   conflict) and as the reuse-distance profiler.  Residency is an
   event-driven count: the hierarchy reports fills, evictions,
   invalidations and flushes, and the scope keeps per-region resident
   line counts that drivers sample at sync points. *)

type level_spec = { name : string; lines : int; sets : int; line_shift : int }

type c3 = {
  mutable compulsory : int;
  mutable capacity : int;
  mutable conflict : int;
}

type level = {
  spec : level_spec;
  pow2_sets : bool;
  reuse : Reuse.t;
  c3_by_phase : (string, c3) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
  dist : (string, Hist.t) Hashtbl.t;  (* region label -> distance hist *)
  cold : (string, int ref) Hashtbl.t;  (* region label -> first touches *)
  set_miss : int array;
  mutable resident : int array;  (* per region index, in labelling order *)
}

type region = { rg_label : string; lo : int; hi : int }  (* byte range *)

type node = {
  node_name : string;
  mutable regions : region array;  (* labelling order; disjoint ranges *)
  mutable memo : int;  (* last matched region index, or -1 *)
  levels : level array;
  mutable samples_rev : (float * (string * string * float) array) list;
}

type t = { mutable nodes_rev : node list }

let create () = { nodes_rev = [] }
let nodes t = List.rev t.nodes_rev

let make_level spec =
  if spec.lines <= 0 || spec.sets <= 0 then
    invalid_arg "Cachescope: level needs positive lines and sets";
  {
    spec;
    pow2_sets = spec.sets land (spec.sets - 1) = 0;
    reuse = Reuse.create ();
    c3_by_phase = Hashtbl.create 8;
    hits = 0;
    misses = 0;
    dist = Hashtbl.create 8;
    cold = Hashtbl.create 8;
    set_miss = Array.make spec.sets 0;
    resident = [||];
  }

let add_node t ~name specs =
  let node =
    {
      node_name = name;
      regions = [||];
      memo = -1;
      levels = Array.of_list (List.map make_level specs);
      samples_rev = [];
    }
  in
  t.nodes_rev <- node :: t.nodes_rev;
  node

let node_name n = n.node_name

(* ------------------------------------------------------------------ *)
(* Regions *)

let label_region node ~label ~lo ~hi =
  if hi > lo then begin
    node.regions <- Array.append node.regions [| { rg_label = label; lo; hi } |];
    node.memo <- -1;
    Array.iter
      (fun lv -> lv.resident <- Array.append lv.resident [| 0 |])
      node.levels
  end

let regions node =
  Array.to_list (Array.map (fun r -> (r.rg_label, r.lo, r.hi)) node.regions)

let region_index node addr =
  let n = Array.length node.regions in
  if n = 0 then -1
  else begin
    let m = node.memo in
    if m >= 0 && addr >= node.regions.(m).lo && addr < node.regions.(m).hi
    then m
    else begin
      let rec go i =
        if i >= n then -1
        else
          let r = node.regions.(i) in
          if addr >= r.lo && addr < r.hi then begin
            node.memo <- i;
            i
          end
          else go (i + 1)
      in
      go 0
    end
  end

let other_region = "other"

let region_label node i =
  if i < 0 then other_region else node.regions.(i).rg_label

(* Cache lines a region spans at a level (region starts are line-aligned
   in practice; a partial tail line counts as the region's). *)
let region_lines lv (r : region) =
  ((r.hi - 1) lsr lv.spec.line_shift) - (r.lo lsr lv.spec.line_shift) + 1

(* ------------------------------------------------------------------ *)
(* Access stream *)

let c3_of lv phase =
  match Hashtbl.find_opt lv.c3_by_phase phase with
  | Some c -> c
  | None ->
      let c = { compulsory = 0; capacity = 0; conflict = 0 } in
      Hashtbl.add lv.c3_by_phase phase c;
      c

let dist_of lv label =
  match Hashtbl.find_opt lv.dist label with
  | Some h -> h
  | None ->
      let h = Hist.create () in
      Hashtbl.add lv.dist label h;
      h

let bump_cold lv label =
  match Hashtbl.find_opt lv.cold label with
  | Some r -> incr r
  | None -> Hashtbl.add lv.cold label (ref 1)

let set_of lv line =
  if lv.pow2_sets then line land (lv.spec.sets - 1) else line mod lv.spec.sets

let note_access node ~level ~phase ~addr ~hit =
  let lv = node.levels.(level) in
  let line = addr lsr lv.spec.line_shift in
  let rl = region_label node (region_index node addr) in
  (match Reuse.note lv.reuse line with
  | Reuse.Cold ->
      bump_cold lv rl;
      if not hit then begin
        let c = c3_of lv phase in
        c.compulsory <- c.compulsory + 1
      end
  | Reuse.Dist d ->
      Hist.observe (dist_of lv rl) (float_of_int d);
      if not hit then begin
        let c = c3_of lv phase in
        if d < lv.spec.lines then c.conflict <- c.conflict + 1
        else c.capacity <- c.capacity + 1
      end
  | Reuse.Far ->
      Hist.observe (dist_of lv rl) (float_of_int lv.spec.lines);
      if not hit then begin
        let c = c3_of lv phase in
        c.capacity <- c.capacity + 1
      end);
  if hit then lv.hits <- lv.hits + 1
  else begin
    lv.misses <- lv.misses + 1;
    let s = set_of lv line in
    lv.set_miss.(s) <- lv.set_miss.(s) + 1
  end

(* ------------------------------------------------------------------ *)
(* Residency *)

let bump_resident node ~level line delta =
  let lv = node.levels.(level) in
  let ri = region_index node (line lsl lv.spec.line_shift) in
  if ri >= 0 && ri < Array.length lv.resident then
    lv.resident.(ri) <- lv.resident.(ri) + delta

let note_fill node ~level ~line ~victim =
  bump_resident node ~level line 1;
  if victim >= 0 then bump_resident node ~level victim (-1)

let note_invalidate node ~level ~line = bump_resident node ~level line (-1)
let note_flush node ~level = Array.fill node.levels.(level).resident 0 (Array.length node.levels.(level).resident) 0

let residency node =
  Array.to_list node.levels
  |> List.concat_map (fun lv ->
         Array.to_list
           (Array.mapi
              (fun ri r ->
                let res =
                  if ri < Array.length lv.resident then lv.resident.(ri)
                  else 0
                in
                ( lv.spec.name,
                  r.rg_label,
                  float_of_int res /. float_of_int (region_lines lv r) ))
              node.regions))

let sample node ~at =
  let vals = residency node in
  node.samples_rev <- (at, Array.of_list vals) :: node.samples_rev

let samples node = List.rev node.samples_rev

(* ------------------------------------------------------------------ *)
(* Readings *)

let sorted_fold tbl read =
  Hashtbl.fold (fun k v acc -> (k, read v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let c3_table node =
  Array.to_list node.levels
  |> List.map (fun lv ->
         ( lv.spec.name,
           sorted_fold lv.c3_by_phase (fun c ->
               (c.compulsory, c.capacity, c.conflict)) ))

let c3_totals node ~level =
  let lv =
    Array.to_list node.levels
    |> List.find (fun lv -> lv.spec.name = level)
  in
  Hashtbl.fold
    (fun _ c (co, ca, cf) ->
      (co + c.compulsory, ca + c.capacity, cf + c.conflict))
    lv.c3_by_phase (0, 0, 0)

let reuse_profiles node =
  Array.to_list node.levels
  |> List.concat_map (fun lv ->
         let labels =
           Hashtbl.fold (fun k _ acc -> k :: acc) lv.dist []
           @ Hashtbl.fold (fun k _ acc -> k :: acc) lv.cold []
           |> List.sort_uniq compare
         in
         List.map
           (fun rl ->
             let cold =
               match Hashtbl.find_opt lv.cold rl with
               | Some r -> !r
               | None -> 0
             in
             let snap =
               match Hashtbl.find_opt lv.dist rl with
               | Some h -> Hist.snapshot h
               | None -> Hist.empty
             in
             (lv.spec.name, rl, cold, snap))
           labels)

let reuse_totals node =
  Array.to_list node.levels
  |> List.map (fun lv ->
         let cold = Hashtbl.fold (fun _ r acc -> acc + !r) lv.cold 0 in
         (* Fold the live per-region histograms in place into a fresh
            accumulator (merge_into, not merge: no snapshot churn when a
            level carries many regions). *)
         let acc = Hist.create () in
         Hashtbl.iter (fun _ h -> Hist.merge_into acc h) lv.dist;
         (lv.spec.name, cold, Hist.snapshot acc))

let hit_miss node =
  Array.to_list node.levels
  |> List.map (fun lv -> (lv.spec.name, (lv.hits, lv.misses)))

let set_pressure node =
  Array.to_list node.levels
  |> List.map (fun lv -> (lv.spec.name, Array.copy lv.set_miss))

(* Aggregate per-set miss counts into at most [buckets] equal ranges of
   consecutive sets — what the heat row and the CSV export render. *)
let bucket_sets counts ~buckets =
  let n = Array.length counts in
  let b = min buckets n in
  if b <= 0 then [||]
  else begin
    let out = Array.make b 0 in
    Array.iteri (fun i c -> out.(i * b / n) <- out.(i * b / n) + c) counts;
    out
  end

let set_pressure_bucketed node ~buckets =
  set_pressure node
  |> List.map (fun (lname, counts) -> (lname, bucket_sets counts ~buckets))

(* ------------------------------------------------------------------ *)
(* Metrics and JSON export *)

let record_metrics node ?(labels = []) reg =
  Array.iter
    (fun lv ->
      let ll = ("level", lv.spec.name) :: labels in
      sorted_fold lv.c3_by_phase Fun.id
      |> List.iter (fun (phase, c) ->
             let l = ("phase", phase) :: ll in
             Metrics.incr reg ~labels:l "scope_compulsory_misses" c.compulsory;
             Metrics.incr reg ~labels:l "scope_capacity_misses" c.capacity;
             Metrics.incr reg ~labels:l "scope_conflict_misses" c.conflict);
      sorted_fold lv.dist Fun.id
      |> List.iter (fun (rl, h) ->
             Metrics.observe_hist reg
               ~labels:(("region", rl) :: ll)
               "scope_reuse_distance" (Hist.snapshot h));
      sorted_fold lv.cold (fun r -> !r)
      |> List.iter (fun (rl, c) ->
             Metrics.incr reg ~labels:(("region", rl) :: ll) "scope_cold_lines" c))
    node.levels

let hist_json (s : Hist.snapshot) =
  Json.Obj
    [
      ("count", Json.Int s.count);
      ("mean", Json.Float (Hist.mean s));
      ( "max",
        if s.count = 0 then Json.Float 0.0 else Json.Float s.max_v );
      ( "buckets",
        Json.List
          (List.map
             (fun (e, c) ->
               Json.List [ Json.Float (Hist.bucket_upper e); Json.Int c ])
             s.buckets) );
    ]

let node_json node =
  let level_json lv =
    let phases =
      sorted_fold lv.c3_by_phase Fun.id
      |> List.map (fun (phase, c) ->
             Json.Obj
               [
                 ("phase", Json.String phase);
                 ("compulsory", Json.Int c.compulsory);
                 ("capacity", Json.Int c.capacity);
                 ("conflict", Json.Int c.conflict);
               ])
    in
    let reuse =
      reuse_profiles node
      |> List.filter (fun (l, _, _, _) -> l = lv.spec.name)
      |> List.map (fun (_, rl, cold, snap) ->
             Json.Obj
               [
                 ("region", Json.String rl);
                 ("cold", Json.Int cold);
                 ("hist", hist_json snap);
               ])
    in
    let pressure =
      bucket_sets lv.set_miss ~buckets:64 |> Array.to_list
      |> List.map (fun c -> Json.Int c)
    in
    Json.Obj
      [
        ("level", Json.String lv.spec.name);
        ("lines", Json.Int lv.spec.lines);
        ("sets", Json.Int lv.spec.sets);
        ("hits", Json.Int lv.hits);
        ("misses", Json.Int lv.misses);
        ("c3", Json.List phases);
        ("reuse", Json.List reuse);
        ("set_misses", Json.List pressure);
      ]
  in
  let sample_json (at, vals) =
    Json.Obj
      [
        ("at_ns", Json.Float at);
        ( "values",
          Json.List
            (Array.to_list vals
            |> List.map (fun (l, r, f) ->
                   Json.Obj
                     [
                       ("level", Json.String l);
                       ("region", Json.String r);
                       ("frac", Json.Float f);
                     ])) );
      ]
  in
  Json.Obj
    [
      ("node", Json.String node.node_name);
      ( "regions",
        Json.List
          (regions node
          |> List.map (fun (l, lo, hi) ->
                 Json.Obj
                   [
                     ("label", Json.String l);
                     ("lo", Json.Int lo);
                     ("hi", Json.Int hi);
                   ])) );
      ("levels", Json.List (Array.to_list (Array.map level_json node.levels)));
      ("residency", Json.List (List.map sample_json (samples node)));
    ]

let to_json t = Json.Obj [ ("nodes", Json.List (List.map node_json (nodes t))) ]

(* ------------------------------------------------------------------ *)
(* Ambient recorder — one slot per domain, exactly like Obs.Profile:
   sweep workers each record into their own run's scope without any
   shared mutable state. *)

let ambient : t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let with_recording t f =
  let slot = Domain.DLS.get ambient in
  let saved = !slot in
  slot := Some t;
  Fun.protect ~finally:(fun () -> slot := saved) f

let current () = !(Domain.DLS.get ambient)
