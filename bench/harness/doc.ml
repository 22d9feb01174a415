let field name j =
  match Obs.Json.member name j with
  | Some v -> v
  | None -> failwith (Printf.sprintf "missing field %S" name)

let to_json ~manifest ~section records =
  Obs.Json.Obj
    [
      ("manifest", Obs.Manifest.to_json manifest);
      (section, Obs.Json.List records);
    ]

let of_json ~section parse j =
  match Obs.Json.member "manifest" j with
  | None -> Error "no \"manifest\" member"
  | Some manifest -> (
      match Obs.Json.member "schema_version" manifest with
      | Some (Obs.Json.Int v) when v = Obs.Manifest.schema_version -> (
          match Obs.Json.member section j with
          | Some (Obs.Json.List records) -> (
              try Ok (List.map parse records) with Failure m -> Error m)
          | Some _ -> Error (Printf.sprintf "%S is not a list" section)
          | None -> Error (Printf.sprintf "no %S member" section))
      | _ ->
          Error
            (Printf.sprintf "manifest schema_version is not %d"
               Obs.Manifest.schema_version))

let load ~section parse path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  match Obs.Json.of_string text with
  | Error e -> Error (Printf.sprintf "%s: %s" path e)
  | Ok j -> of_json ~section parse j

let save path ~manifest ~section records =
  Dispatch.Telemetry.write_json path (to_json ~manifest ~section records)
