type entry = {
  id : int;
  ns : float;
  batch : int;
  breakdown : (string * float) list;
}

type t = { k : int; mutable worst : entry list; mutable len : int }

let create ~k =
  if k < 0 then invalid_arg "Tail.create: negative k";
  { k; worst = []; len = 0 }

(* Order: slowest first; ties broken towards the earlier (smaller) query
   id, so the kept set does not depend on how close calls arrive. *)
let precedes a b = a.ns > b.ns || (a.ns = b.ns && a.id < b.id)

let qualifies t ns =
  t.k > 0
  && (t.len < t.k
     ||
     match List.nth_opt t.worst (t.len - 1) with
     | Some last -> ns > last.ns
     | None -> true)

let note t ~id ~ns ~batch ~breakdown =
  if t.k > 0 then begin
    let e = { id; ns; batch; breakdown } in
    let rec insert = function
      | [] -> [ e ]
      | x :: rest -> if precedes e x then e :: x :: rest else x :: insert rest
    in
    let w = insert t.worst in
    if t.len < t.k then begin
      t.worst <- w;
      t.len <- t.len + 1
    end
    else
      (* Drop the fastest of the k+1 candidates. *)
      t.worst <- List.filteri (fun i _ -> i < t.k) w
  end

let worst t = t.worst

let fmt_ns ns =
  let a = Float.abs ns in
  if a < 1e3 then Printf.sprintf "%.1f ns" ns
  else if a < 1e6 then Printf.sprintf "%.2f us" (ns /. 1e3)
  else if a < 1e9 then Printf.sprintf "%.2f ms" (ns /. 1e6)
  else Printf.sprintf "%.3f s" (ns /. 1e9)

let render t =
  match t.worst with
  | [] -> ""
  | worst ->
      let buf = Buffer.create 256 in
      Buffer.add_string buf
        (Printf.sprintf "tail: %d slowest quer%s (response time)\n" t.len
           (if t.len = 1 then "y" else "ies"));
      List.iter
        (fun e ->
          let parts =
            e.breakdown
            |> List.filter (fun (_, ns) -> ns <> 0.0)
            |> List.sort (fun (na, a) (nb, b) ->
                   match compare b a with 0 -> compare na nb | c -> c)
            |> List.map (fun (name, ns) ->
                   let pct =
                     if e.ns = 0.0 then 0.0 else 100.0 *. ns /. e.ns
                   in
                   Printf.sprintf "%s %s (%.0f%%)" name (fmt_ns ns) pct)
          in
          Buffer.add_string buf
            (Printf.sprintf "  qid %-8d %10s  batch %-6d %s\n" e.id
               (fmt_ns e.ns) e.batch
               (String.concat ", " parts)))
        worst;
      Buffer.contents buf
