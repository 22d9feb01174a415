type t = { headers : string list; mutable body : string list list (* reversed *) }

let create ~headers = { headers; body = [] }

let add_row t row =
  if List.length row <> List.length t.headers then
    invalid_arg
      (Printf.sprintf "Table.add_row: %d cells for %d columns"
         (List.length row) (List.length t.headers));
  t.body <- row :: t.body

let add_rows t rows = List.iter (add_row t) rows
let rows t = List.length t.body

let render t =
  let all = t.headers :: List.rev t.body in
  let n_cols = List.length t.headers in
  let widths = Array.make n_cols 0 in
  List.iter
    (List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)))
    all;
  let buf = Buffer.create 256 in
  let render_row row =
    List.iteri
      (fun i cell ->
        if i > 0 then Buffer.add_string buf "  ";
        Buffer.add_string buf cell;
        if i < n_cols - 1 then
          Buffer.add_string buf (String.make (widths.(i) - String.length cell) ' '))
      row;
    Buffer.add_char buf '\n'
  in
  render_row t.headers;
  let total = Array.fold_left ( + ) 0 widths + (2 * (n_cols - 1)) in
  Buffer.add_string buf (String.make total '-');
  Buffer.add_char buf '\n';
  List.iter render_row (List.rev t.body);
  Buffer.contents buf

let cell_f ?(decimals = 2) x = Printf.sprintf "%.*f" decimals x
let cell_i = string_of_int
let cell_pct x = Printf.sprintf "%.1f%%" (100.0 *. x)
