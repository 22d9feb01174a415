type series = { label : string; glyph : char; points : (float * float) array }

(* Ten-step intensity ramp for sparklines and heat rows.  Deliberately
   ASCII-only: these strings end up in golden CSV/terminal fixtures
   that must not depend on the viewer's unicode font. *)
let ramp = " .:-=+*#%@"

let sparkline ?v_min ?v_max values =
  let fmin = Array.fold_left min infinity values
  and fmax = Array.fold_left max neg_infinity values in
  let lo = match v_min with Some v -> v | None -> fmin in
  let hi = match v_max with Some v -> v | None -> fmax in
  let range = if hi > lo then hi -. lo else 1.0 in
  let steps = String.length ramp - 1 in
  String.init (Array.length values) (fun i ->
      let v = (values.(i) -. lo) /. range in
      let v = Float.min 1.0 (Float.max 0.0 v) in
      ramp.[int_of_float ((v *. float_of_int steps) +. 0.5)])

let heat_row ?v_min ?v_max ~label values =
  Printf.sprintf "%-14s|%s" label (sparkline ?v_min ?v_max values)

let render ?(width = 72) ?(height = 20) ?(logx = false) ?y_min ~x_label
    ~y_label series =
  let all_points = List.concat_map (fun s -> Array.to_list s.points) series in
  if all_points = [] then invalid_arg "Ascii_plot.render: no data";
  let xform x = if logx then log x /. log 2.0 else x in
  let xs = List.map (fun (x, _) -> xform x) all_points in
  let ys = List.map snd all_points in
  let fmin = List.fold_left min infinity and fmax = List.fold_left max neg_infinity in
  let x0 = fmin xs and x1 = fmax xs in
  let y0 = match y_min with Some v -> v | None -> fmin ys in
  let y1 = fmax ys in
  let xr = if x1 > x0 then x1 -. x0 else 1.0 in
  let yr = if y1 > y0 then y1 -. y0 else 1.0 in
  let grid = Array.make_matrix height width ' ' in
  List.iter
    (fun s ->
      Array.iter
        (fun (x, y) ->
          let cx =
            int_of_float ((xform x -. x0) /. xr *. float_of_int (width - 1) +. 0.5)
          in
          let cy =
            int_of_float ((y -. y0) /. yr *. float_of_int (height - 1) +. 0.5)
          in
          if cx >= 0 && cx < width && cy >= 0 && cy < height then
            grid.(height - 1 - cy).(cx) <- s.glyph)
        s.points)
    series;
  let buf = Buffer.create ((width + 12) * (height + 6)) in
  Buffer.add_string buf (Printf.sprintf "%s\n" y_label);
  for r = 0 to height - 1 do
    let y_here = y1 -. (float_of_int r /. float_of_int (height - 1) *. yr) in
    Buffer.add_string buf (Printf.sprintf "%10.3f |" y_here);
    Buffer.add_string buf (String.init width (fun c -> grid.(r).(c)));
    Buffer.add_char buf '\n'
  done;
  Buffer.add_string buf (String.make 11 ' ');
  Buffer.add_char buf '+';
  Buffer.add_string buf (String.make width '-');
  Buffer.add_char buf '\n';
  let left = if logx then Printf.sprintf "2^%.1f" x0 else Printf.sprintf "%g" x0 in
  let right = if logx then Printf.sprintf "2^%.1f" x1 else Printf.sprintf "%g" x1 in
  let gap = max 1 (width - String.length left - String.length right) in
  Buffer.add_string buf
    (Printf.sprintf "%s%s%s%s   (%s)\n" (String.make 12 ' ') left
       (String.make gap ' ') right x_label);
  Buffer.add_string buf "legend: ";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string buf ", ";
      Buffer.add_string buf (Printf.sprintf "%c = %s" s.glyph s.label))
    series;
  Buffer.add_char buf '\n';
  Buffer.contents buf
