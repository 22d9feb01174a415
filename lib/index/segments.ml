(* Log-structured dynamic index: an immutable sorted base run plus
   in-memory delta segments (after Asadi & Lin's incremental in-memory
   indexing).  Every entry records an *effective*
   state flip — an insert of a key that was live, or a delete of a key
   that was dead, is rejected at apply time — so per key the recorded
   ops strictly alternate insert/delete.  That invariant is what makes
   rank queries order-free: the dynamic rank of [q] is the base rank
   plus the signed sum of entry effects with key <= q, summed over all
   segments without any cross-segment shadowing logic.

   Layout per sealed segment (three parallel runs in machine memory):
     keys[len]  strictly increasing (one entry per key after coalescing)
     ops[len]   0 = insert, 1 = tombstone delete
     pins[len]  prefix count of inserts: pins[i] = #{j <= i | ops[j] = 0}
   so a segment's contribution to rank(q), with c = #keys <= q, is
   [2 * pins[c-1] - c] (inserts minus deletes among the first c entries).

   The active segment is an append log (2 words per entry: key, op)
   scanned linearly; at [seg_capacity] entries it is sealed into a
   sorted tier-0 segment.  [merge_threshold] same-tier segments are
   coalesced into one segment a tier up (size-tiered policy; same-tier
   segments are age-contiguous, so parity coalescing is exact).  When
   total delta entries exceed [major_fraction] of the base length the
   whole delta is folded into a fresh base run (major compaction).

   All delta traffic is timed through the owning machine: probes under
   phase ["segment_probe"], seal/merge/compaction under ["merge"], with
   the caller's phase restored afterwards.  The base-run search of
   {!search} stays in the caller's phase, mirroring the static
   structures' lookup accounting. *)

type policy = {
  seg_capacity : int;
  merge_threshold : int;
  major_fraction : float;
}

let default_policy =
  { seg_capacity = 64; merge_threshold = 4; major_fraction = 0.25 }

let check_policy p =
  if p.seg_capacity < 1 then invalid_arg "Segments: seg_capacity < 1";
  if p.merge_threshold < 2 then invalid_arg "Segments: merge_threshold < 2";
  if p.major_fraction <= 0.0 then invalid_arg "Segments: major_fraction <= 0"

type sealed = { tier : int; s_len : int; s_keys : int; s_ops : int; s_pins : int }

type stats = {
  mutable inserts : int;  (** effective inserts applied *)
  mutable deletes : int;  (** effective deletes applied *)
  mutable noops : int;  (** updates rejected as state-preserving *)
  mutable seals : int;
  mutable merges : int;
  mutable majors : int;
}

type t = {
  m : Machine.t;
  probe_cost : float;
  pol : policy;
  mutable base : int;
  mutable base_len : int;
  mutable live : int;
  active : int;  (** append log, 2 words per entry *)
  mutable active_len : int;
  mutable sealed : sealed list;  (** newest first; tiers ascending *)
  mutable delta_entries : int;  (** sealed entries (excludes active) *)
  stats : stats;
}

let create m ?(policy = default_policy) keys =
  check_policy policy;
  Key.check_sorted_unique keys;
  let len = Array.length keys in
  let base = Machine.labelled_alloc m ~label:"partition" (max 1 len) in
  Machine.poke_array m base keys;
  let active =
    Machine.labelled_alloc m ~label:"delta" (2 * policy.seg_capacity)
  in
  {
    m;
    probe_cost = (Machine.params m).Cachesim.Mem_params.comp_cost_probe_ns;
    pol = policy;
    base;
    base_len = len;
    live = len;
    active;
    active_len = 0;
    sealed = [];
    delta_entries = 0;
    stats =
      { inserts = 0; deletes = 0; noops = 0; seals = 0; merges = 0; majors = 0 };
  }

let machine t = t.m
let length t = t.live
let base_length t = t.base_len
let segment_count t = List.length t.sealed
let delta_entries t = t.delta_entries + t.active_len
let stats t = t.stats
let policy t = t.pol

(* Timed count of machine-memory keys [<= q] in [[addr, addr+len)]. *)
let count_le t addr len q =
  let lo = ref 0 and hi = ref len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    Machine.compute t.m t.probe_cost;
    if Machine.read t.m (addr + mid) <= q then lo := mid + 1 else hi := mid
  done;
  !lo

let count_le_untimed t addr len q =
  let lo = ref 0 and hi = ref len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Machine.peek t.m (addr + mid) <= q then lo := mid + 1 else hi := mid
  done;
  !lo

(* ------------------------------------------------------------------ *)
(* Seal / merge / major compaction.  Host-side coalescing is free; the
   simulated cost is the timed traffic: every input word is read, every
   output word written, plus one comparison charge per input entry for
   the sort/merge work. *)

(* Coalesce [(key, op)] entries ordered oldest-first into a sorted
   deduplicated entry list.  Per key the ops alternate, so an even
   count nets to zero (drop) and an odd count nets to the newest op. *)
let coalesce entries =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (k, op) ->
      match Hashtbl.find_opt tbl k with
      | None -> Hashtbl.replace tbl k (1, op)
      | Some (c, _) -> Hashtbl.replace tbl k (c + 1, op))
    entries;
  let out =
    Hashtbl.fold (fun k (c, op) acc -> if c land 1 = 1 then (k, op) :: acc else acc)
      tbl []
  in
  List.sort (fun (a, _) (b, _) -> compare (a : int) b) out

(* Write a coalesced entry list as a sealed segment at [tier]; returns
   [None] for an empty list (fully self-cancelling delta). *)
let write_segment t ~tier entries =
  let len = List.length entries in
  if len = 0 then None
  else begin
    let s_keys = Machine.labelled_alloc t.m ~label:"delta" (3 * len) in
    let s_ops = s_keys + len in
    let s_pins = s_ops + len in
    let pins = ref 0 in
    List.iteri
      (fun i (k, op) ->
        if op = 0 then incr pins;
        Machine.write t.m (s_keys + i) k;
        Machine.write t.m (s_ops + i) op;
        Machine.write t.m (s_pins + i) !pins)
      entries;
    Some { tier; s_len = len; s_keys; s_ops; s_pins }
  end

(* Read a sealed segment back as an oldest-first-agnostic entry list
   (one entry per key, so intra-segment order carries no age info). *)
let read_segment t s =
  let out = ref [] in
  for i = s.s_len - 1 downto 0 do
    Machine.compute t.m t.probe_cost;
    let k = Machine.read t.m (s.s_keys + i) in
    let op = Machine.read t.m (s.s_ops + i) in
    out := (k, op) :: !out
  done;
  !out

let merge_tier t tier =
  let group = List.filter (fun s -> s.tier = tier) t.sealed in
  (* oldest -> newest so [coalesce] keeps the newest op per key *)
  let entries =
    List.concat_map (read_segment t) (List.rev group)
  in
  let merged = coalesce entries in
  let in_len = List.fold_left (fun a s -> a + s.s_len) 0 group in
  let seg = write_segment t ~tier:(tier + 1) merged in
  let front = List.filter (fun s -> s.tier < tier) t.sealed in
  let back = List.filter (fun s -> s.tier > tier) t.sealed in
  t.sealed <- front @ Option.to_list seg @ back;
  t.delta_entries <-
    t.delta_entries - in_len
    + (match seg with Some s -> s.s_len | None -> 0);
  t.stats.merges <- t.stats.merges + 1

let rec cascade t =
  let counts = Hashtbl.create 8 in
  List.iter
    (fun s ->
      Hashtbl.replace counts s.tier
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts s.tier)))
    t.sealed;
  let overfull =
    Hashtbl.fold
      (fun tier c acc ->
        if c >= t.pol.merge_threshold then
          Some (match acc with None -> tier | Some x -> min x tier)
        else acc)
      counts None
  in
  match overfull with
  | Some tier ->
      merge_tier t tier;
      cascade t
  | None -> ()

(* Fold the whole delta into a fresh base run. *)
let major t =
  let delta =
    coalesce
      (List.concat_map (read_segment t) (List.rev t.sealed))
  in
  let out = ref [] in
  let di = ref delta in
  for i = 0 to t.base_len - 1 do
    Machine.compute t.m t.probe_cost;
    let bk = Machine.read t.m (t.base + i) in
    let rec drain () =
      match !di with
      | (k, op) :: rest when k < bk ->
          di := rest;
          if op = 0 then out := k :: !out;
          drain ()
      | (k, 1) :: rest when k = bk ->
          (* tombstone over base: consume both *)
          di := rest;
          raise Exit
      | _ -> out := bk :: !out
    in
    (try drain () with Exit -> ())
  done;
  List.iter (fun (k, op) -> if op = 0 then out := k :: !out) !di;
  let keys = Array.of_list (List.rev !out) in
  let len = Array.length keys in
  let base = Machine.labelled_alloc t.m ~label:"partition" (max 1 len) in
  Array.iteri (fun i k -> Machine.write t.m (base + i) k) keys;
  t.base <- base;
  t.base_len <- len;
  t.sealed <- [];
  t.delta_entries <- 0;
  t.stats.majors <- t.stats.majors + 1

let seal t =
  let entries = ref [] in
  for i = t.active_len - 1 downto 0 do
    Machine.compute t.m t.probe_cost;
    let k = Machine.read t.m (t.active + (2 * i)) in
    let op = Machine.read t.m (t.active + (2 * i) + 1) in
    entries := (k, op) :: !entries
  done;
  let seg = write_segment t ~tier:0 (coalesce !entries) in
  (match seg with
  | Some s ->
      t.sealed <- s :: t.sealed;
      t.delta_entries <- t.delta_entries + s.s_len
  | None -> ());
  t.active_len <- 0;
  t.stats.seals <- t.stats.seals + 1;
  cascade t;
  if
    float_of_int t.delta_entries
    >= t.pol.major_fraction *. float_of_int (max 1 t.base_len)
  then major t

(* ------------------------------------------------------------------ *)
(* Liveness lookup, newest-first: active log, sealed segments, base. *)

let lookup_live t k =
  let rec active i =
    if i < 0 then None
    else begin
      Machine.compute t.m t.probe_cost;
      if Machine.read t.m (t.active + (2 * i)) = k then begin
        Machine.compute t.m t.probe_cost;
        Some (Machine.read t.m (t.active + (2 * i) + 1) = 0)
      end
      else active (i - 1)
    end
  in
  match active (t.active_len - 1) with
  | Some l -> l
  | None ->
      let rec segs = function
        | [] ->
            let c = count_le t t.base t.base_len k in
            c > 0
            && (Machine.compute t.m t.probe_cost;
                Machine.read t.m (t.base + c - 1) = k)
        | s :: rest ->
            let c = count_le t s.s_keys s.s_len k in
            if
              c > 0
              && (Machine.compute t.m t.probe_cost;
                  Machine.read t.m (s.s_keys + c - 1) = k)
            then begin
              Machine.compute t.m t.probe_cost;
              Machine.read t.m (s.s_ops + c - 1) = 0
            end
            else segs rest
      in
      segs t.sealed

let append t k op =
  Machine.write t.m (t.active + (2 * t.active_len)) k;
  Machine.write t.m (t.active + (2 * t.active_len) + 1) op;
  t.active_len <- t.active_len + 1;
  if t.active_len >= t.pol.seg_capacity then begin
    let ph = Machine.phase t.m in
    Machine.set_phase t.m "merge";
    seal t;
    Machine.set_phase t.m ph
  end

let insert t k =
  if not (Key.valid k) then invalid_arg "Segments.insert: key out of range";
  let ph = Machine.phase t.m in
  Machine.set_phase t.m "segment_probe";
  let live = lookup_live t k in
  let applied =
    if live then begin
      t.stats.noops <- t.stats.noops + 1;
      false
    end
    else begin
      append t k 0;
      t.live <- t.live + 1;
      t.stats.inserts <- t.stats.inserts + 1;
      true
    end
  in
  Machine.set_phase t.m ph;
  applied

let delete t k =
  if not (Key.valid k) then invalid_arg "Segments.delete: key out of range";
  let ph = Machine.phase t.m in
  Machine.set_phase t.m "segment_probe";
  let live = lookup_live t k in
  let applied =
    if not live then begin
      t.stats.noops <- t.stats.noops + 1;
      false
    end
    else begin
      append t k 1;
      t.live <- t.live - 1;
      t.stats.deletes <- t.stats.deletes + 1;
      true
    end
  in
  Machine.set_phase t.m ph;
  applied

(* ------------------------------------------------------------------ *)
(* Rank search.  Base probes stay in the caller's phase (they are the
   static structures' lookup cost); delta probes are "segment_probe". *)

let search t q =
  let r = count_le t t.base t.base_len q in
  let ph = Machine.phase t.m in
  Machine.set_phase t.m "segment_probe";
  let sum = ref 0 in
  for i = 0 to t.active_len - 1 do
    Machine.compute t.m t.probe_cost;
    if Machine.read t.m (t.active + (2 * i)) <= q then begin
      Machine.compute t.m t.probe_cost;
      sum :=
        !sum + (if Machine.read t.m (t.active + (2 * i) + 1) = 0 then 1 else -1)
    end
  done;
  List.iter
    (fun s ->
      let c = count_le t s.s_keys s.s_len q in
      if c > 0 then begin
        Machine.compute t.m t.probe_cost;
        let pins = Machine.read t.m (s.s_pins + c - 1) in
        sum := !sum + ((2 * pins) - c)
      end)
    t.sealed;
  Machine.set_phase t.m ph;
  r + !sum

let search_untimed t q =
  let r = count_le_untimed t t.base t.base_len q in
  let sum = ref 0 in
  for i = 0 to t.active_len - 1 do
    if Machine.peek t.m (t.active + (2 * i)) <= q then
      sum :=
        !sum + (if Machine.peek t.m (t.active + (2 * i) + 1) = 0 then 1 else -1)
  done;
  List.iter
    (fun s ->
      let c = count_le_untimed t s.s_keys s.s_len q in
      if c > 0 then
        sum := !sum + ((2 * Machine.peek t.m (s.s_pins + c - 1)) - c))
    t.sealed;
  r + !sum

(* Untimed reconstruction of the live key set (tests / validation). *)
let live_keys t =
  let tbl = Hashtbl.create 64 in
  let note k op =
    match Hashtbl.find_opt tbl k with
    | None -> Hashtbl.replace tbl k (1, op)
    | Some (c, _) -> Hashtbl.replace tbl k (c + 1, op)
  in
  List.iter
    (fun s ->
      for i = 0 to s.s_len - 1 do
        note (Machine.peek t.m (s.s_keys + i)) (Machine.peek t.m (s.s_ops + i))
      done)
    (List.rev t.sealed);
  for i = 0 to t.active_len - 1 do
    note
      (Machine.peek t.m (t.active + (2 * i)))
      (Machine.peek t.m (t.active + (2 * i) + 1))
  done;
  let out = ref [] in
  for i = t.base_len - 1 downto 0 do
    let k = Machine.peek t.m (t.base + i) in
    match Hashtbl.find_opt tbl k with
    | Some (c, _) when c land 1 = 1 -> ()  (* net tombstone *)
    | _ -> out := k :: !out
  done;
  Hashtbl.iter
    (fun k (c, op) -> if c land 1 = 1 && op = 0 then out := k :: !out)
    tbl;
  let a = Array.of_list !out in
  Array.sort (fun (x : int) y -> compare x y) a;
  a
