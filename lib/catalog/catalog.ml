module Attribute = Prairie_value.Attribute
module String_map = Map.Make (String)

type t = Stored_file.t String_map.t

let empty = String_map.empty
let add file t = String_map.add file.Stored_file.name file t
let of_files files = List.fold_left (fun t f -> add f t) empty files
let find t name = String_map.find_opt name t
let find_exn t name = String_map.find name t
let mem t name = String_map.mem name t
let files t = List.map snd (String_map.bindings t)
let owner_of t attr = find t (Attribute.owner attr)

let column_of t attr =
  match owner_of t attr with
  | None -> None
  | Some file -> Stored_file.find_column file (Attribute.name attr)

let default_distinct = 10

let distinct_of t attr =
  match column_of t attr with
  | Some c -> max 1 c.Stored_file.distinct
  | None -> default_distinct

let has_index_on t attr =
  match owner_of t attr with
  | None -> false
  | Some file -> Stored_file.has_index_on file attr

let ref_target t attr =
  match column_of t attr with
  | Some c -> c.Stored_file.ref_to
  | None -> None

let is_set_valued t attr =
  match column_of t attr with
  | Some c -> c.Stored_file.set_valued
  | None -> false
