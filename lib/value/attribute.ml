type t = { owner : string; name : string }

let make ~owner ~name = { owner; name }
let owner t = t.owner
let name t = t.name
let equal a b =
  a == b || (String.equal a.owner b.owner && String.equal a.name b.name)

let compare a b =
  if a == b then 0
  else
    match String.compare a.owner b.owner with
    | 0 -> String.compare a.name b.name
    | c -> c

let hash t = Hashtbl.hash (t.owner, t.name)
let to_string t = if t.owner = "" then t.name else t.owner ^ "." ^ t.name

let of_string s =
  match String.index_opt s '.' with
  | None -> { owner = ""; name = s }
  | Some i ->
    { owner = String.sub s 0 i;
      name = String.sub s (i + 1) (String.length s - i - 1) }

let pp ppf t = Format.pp_print_string ppf (to_string t)

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)
