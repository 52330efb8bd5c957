let version = 2

let field = ("schema_version", Json.Int version)

let tag fields = Json.Obj (field :: fields)

let check ?(what = "report") j =
  match Json.member "schema_version" j with
  | Some (Json.Int v) when v = version -> Ok ()
  | Some (Json.Int v) ->
    Error (Printf.sprintf "%s: schema_version %d, expected %d" what v version)
  | Some _ -> Error (what ^ ": schema_version is not an integer")
  | None -> Error (what ^ ": missing schema_version")

