(** The layout both committed benchmark artefacts share: a JSON object
    whose ["manifest"] member is an {!Obs.Manifest} and whose one
    other member, the section, lists the document's records. *)

val field : string -> Obs.Json.t -> Obs.Json.t
(** [field name j] is member [name] of the object [j].  Raises
    [Failure] naming the field when it is absent. *)

val to_json :
  manifest:Obs.Manifest.t -> section:string -> Obs.Json.t list -> Obs.Json.t

val of_json :
  section:string ->
  (Obs.Json.t -> 'a) ->
  Obs.Json.t ->
  ('a list, string) result
(** [of_json ~section parse j] parses every record of [section] with
    [parse].  It is an error when the manifest is missing, when its
    [schema_version] is not {!Obs.Manifest.schema_version}, when
    [section] is not a list, or when [parse] raises [Failure]. *)

val load :
  section:string ->
  (Obs.Json.t -> 'a) ->
  string ->
  ('a list, string) result
(** {!of_json} over the file at the given path. *)

val save :
  string ->
  manifest:Obs.Manifest.t ->
  section:string ->
  Obs.Json.t list ->
  unit
(** Write {!to_json} to the given path with [Telemetry.write_json]. *)
