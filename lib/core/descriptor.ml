module Value = Prairie_value.Value
module String_map = Map.Make (String)
module String_set = Set.Make (String)

(* A descriptor is an immutable binding map paired with an
   order-independent hash of its bindings.  The hash is maintained
   incrementally by [set]/[remove], so [hash] is O(1) and [equal] rejects
   most unequal pairs with one int compare before walking the maps. *)

type t = {
  hash : int;  (** order-independent combination of binding hashes *)
  map : Value.t String_map.t;
}

(* XOR-combined per-binding hashes: order-independent, so [set]/[remove]
   update it incrementally without refolding the map.

   [hash_param] with a deep meaningful-node budget: the default budget (10)
   stops inside long attribute lists, making every join descriptor's "attrs"
   binding hash alike and defeating the hash pre-check in [equal].  The deeper
   walk is paid once per binding change, not per comparison.

   Equal values hash equal even at the float edge cases: [caml_hash]
   normalizes -0. to 0. and all NaNs to one payload, exactly the
   identifications [Float.equal]-based value equality makes.  That makes a
   hash mismatch a sound proof of inequality. *)
let binding_hash p v = Hashtbl.hash_param 128 256 (p, v)

let empty_hash = 0x6b84c5

let map_hash m =
  String_map.fold (fun p v h -> h lxor binding_hash p v) m empty_hash

let make map = { hash = map_hash map; map }

(* All zero: nothing is pooled.  Kept for perfbench/, which reads it. *)
type pool_stats = { size : int; hits : int; misses : int }

let pool_stats () = { size = 0; hits = 0; misses = 0 }
let empty = make String_map.empty
let is_empty d = String_map.is_empty d.map

let get d p =
  match String_map.find_opt p d.map with Some v -> v | None -> Value.Null

let find d p =
  match String_map.find_opt p d.map with
  | Some Value.Null | None -> None
  | Some v -> Some v

(* "No constraint" values are normalized to absence so that descriptors
   reached along different rewriting paths compare equal: an unset
   [tuple_order] reads back as DONT_CARE and an unset predicate as [True]
   (see the typed accessors), so the representations are interchangeable. *)
let is_no_constraint = function
  | Value.Null | Value.Order Prairie_value.Order.Any
  | Value.Pred Prairie_value.Predicate.True ->
    true
  | _ -> false

let set d p v =
  if is_no_constraint v then
    match String_map.find_opt p d.map with
    | None -> d
    | Some old ->
      { hash = d.hash lxor binding_hash p old; map = String_map.remove p d.map }
  else
    match String_map.find_opt p d.map with
    | Some old ->
      {
        hash = d.hash lxor binding_hash p old lxor binding_hash p v;
        map = String_map.add p v d.map;
      }
    | None ->
      { hash = d.hash lxor binding_hash p v; map = String_map.add p v d.map }

let remove d p =
  match String_map.find_opt p d.map with
  | None -> d
  | Some old ->
    { hash = d.hash lxor binding_hash p old; map = String_map.remove p d.map }

let mem d p = match find d p with Some _ -> true | None -> false

let of_list bindings =
  make
    (List.fold_left
       (fun m (p, v) ->
         if is_no_constraint v then String_map.remove p m
         else String_map.add p v m)
       String_map.empty bindings)

let to_list d = String_map.bindings d.map

let merge ~base ~overrides =
  if String_map.is_empty overrides.map then base
  else if String_map.is_empty base.map then overrides
  else make (String_map.union (fun _ _ v -> Some v) base.map overrides.map)

(* [String_map.filter] preserves physical identity when nothing is dropped,
   so the common "already restricted" case returns [d] itself. *)
let restrict_set d props =
  let m = String_map.filter (fun p _ -> String_set.mem p props) d.map in
  if m == d.map then d else make m

let without_set d props =
  let m = String_map.filter (fun p _ -> not (String_set.mem p props)) d.map in
  if m == d.map then d else make m

let restrict d props = restrict_set d (String_set.of_list props)
let without d props = without_set d (String_set.of_list props)

(* The hash pre-check is sound because equal maps hash equal (see
   [binding_hash]). *)
let equal a b =
  a == b || (a.hash = b.hash && String_map.equal Value.equal a.map b.map)

let compare a b = if a == b then 0 else String_map.compare Value.compare a.map b.map
let hash d = d.hash

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

(* Injective serialization for fingerprinting.  Strings are length-prefixed
   so concatenation cannot introduce collisions; floats are rendered as hex
   ("%h") so distinct bit patterns stay distinct where "%g" would round. *)
let add_fingerprint buf d =
  let tagged c s =
    Buffer.add_char buf c;
    Buffer.add_string buf (string_of_int (String.length s));
    Buffer.add_char buf ':';
    Buffer.add_string buf s
  in
  let rec add_value = function
    | Value.Null -> Buffer.add_char buf 'N'
    | Value.Bool b -> Buffer.add_char buf (if b then 'T' else 'F')
    | Value.Int i ->
      Buffer.add_char buf 'I';
      Buffer.add_string buf (string_of_int i)
    | Value.Float f ->
      Buffer.add_char buf 'D';
      Buffer.add_string buf (Printf.sprintf "%h" f)
    | Value.Str s -> tagged 'S' s
    | Value.Order o -> tagged 'O' (Prairie_value.Order.to_string o)
    | Value.Pred p -> tagged 'P' (Prairie_value.Predicate.to_string p)
    | Value.Attrs attrs ->
      tagged 'A'
        (String.concat "\x01" (List.map Prairie_value.Attribute.to_string attrs))
    | Value.List vs ->
      Buffer.add_char buf 'L';
      Buffer.add_string buf (string_of_int (List.length vs));
      Buffer.add_char buf ':';
      List.iter add_value vs
  in
  Buffer.add_char buf '{';
  String_map.iter
    (fun p v ->
      tagged 'k' p;
      Buffer.add_char buf '=';
      add_value v;
      Buffer.add_char buf ';')
    d.map;
  Buffer.add_char buf '}'

let fingerprint d =
  let buf = Buffer.create 64 in
  add_fingerprint buf d;
  Buffer.contents buf

let get_int d p = Value.to_int (get d p)
let get_float d p = Value.to_float (get d p)
let get_order d p = Value.to_order (get d p)
let get_pred d p = Value.to_pred (get d p)
let get_attrs d p = Value.to_attrs (get d p)

let cost d = match find d "cost" with Some v -> Value.to_float v | None -> 0.0
let set_cost d c = set d "cost" (Value.Float c)
