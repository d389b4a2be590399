type ty =
  | T_bool
  | T_int
  | T_float
  | T_cost
  | T_string
  | T_order
  | T_pred
  | T_attrs
  | T_list

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Order of Order.t
  | Pred of Predicate.t
  | Attrs of Attribute.t list
  | List of t list

exception Type_error of string

let ty_to_string = function
  | T_bool -> "BOOL"
  | T_int -> "INT"
  | T_float -> "FLOAT"
  | T_cost -> "COST"
  | T_string -> "STRING"
  | T_order -> "ORDER"
  | T_pred -> "PREDICATE"
  | T_attrs -> "ATTRIBUTES"
  | T_list -> "LIST"

let ty_of_string s =
  match String.uppercase_ascii s with
  | "BOOL" -> Some T_bool
  | "INT" -> Some T_int
  | "FLOAT" -> Some T_float
  | "COST" -> Some T_cost
  | "STRING" -> Some T_string
  | "ORDER" -> Some T_order
  | "PREDICATE" -> Some T_pred
  | "ATTRIBUTES" -> Some T_attrs
  | "LIST" -> Some T_list
  | _ -> None

let has_ty v ty =
  match (v, ty) with
  | Null, _ -> true
  | Bool _, T_bool
  | Int _, T_int
  | Float _, (T_float | T_cost)
  | Int _, (T_float | T_cost)
  | Str _, T_string
  | Order _, T_order
  | Pred _, T_pred
  | Attrs _, T_attrs
  | List _, T_list ->
    true
  | (Bool _ | Int _ | Float _ | Str _ | Order _ | Pred _ | Attrs _ | List _), _
    ->
    false

(* Physical-equality fast paths throughout: a derived descriptor shares
   value structure with the one it came from ([Map.add] keeps every untouched
   binding, and rule actions copy whole values, attribute-list tails and
   predicate trees), so [==] settles almost every comparison on the
   optimizer hot paths without walking the structure. *)
let rec attrs_equal x y =
  x == y
  ||
  match (x, y) with
  | [], [] -> true
  | a :: xs, b :: ys -> Attribute.equal a b && attrs_equal xs ys
  | [], _ :: _ | _ :: _, [] -> false

let rec equal a b =
  a == b
  ||
  match (a, b) with
  | Null, Null -> true
  | Bool x, Bool y -> Bool.equal x y
  | Int x, Int y -> Int.equal x y
  | Float x, Float y -> Float.equal x y
  | Str x, Str y -> String.equal x y
  | Order x, Order y -> Order.equal x y
  | Pred x, Pred y -> Predicate.equal x y
  | Attrs x, Attrs y -> attrs_equal x y
  | List x, List y -> list_equal x y
  | ( ( Null | Bool _ | Int _ | Float _ | Str _ | Order _ | Pred _ | Attrs _
      | List _ ),
      _ ) ->
    false

and list_equal x y =
  x == y
  ||
  match (x, y) with
  | [], [] -> true
  | a :: xs, b :: ys -> equal a b && list_equal xs ys
  | [], _ :: _ | _ :: _, [] -> false

let compare a b = Stdlib.compare a b
let hash v = Hashtbl.hash v

let rec to_repr = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%g" f
  | Str s -> Printf.sprintf "%S" s
  | Order o -> Order.to_string o
  | Pred p -> Predicate.to_string p
  | Attrs attrs ->
    "{" ^ String.concat ", " (List.map Attribute.to_string attrs) ^ "}"
  | List vs -> "[" ^ String.concat "; " (List.map to_repr vs) ^ "]"

let pp ppf v = Format.pp_print_string ppf (to_repr v)
let type_error op v = raise (Type_error (op ^ ": " ^ to_repr v))

let to_bool = function Bool b -> b | v -> type_error "to_bool" v
let to_int = function Int i -> i | v -> type_error "to_int" v

let to_float = function
  | Float f -> f
  | Int i -> float_of_int i
  | v -> type_error "to_float" v

let to_string_value = function Str s -> s | v -> type_error "to_string" v
let to_order = function Order o -> o | Null -> Order.Any | v -> type_error "to_order" v
let to_pred = function Pred p -> p | Null -> Predicate.True | v -> type_error "to_pred" v
let to_attrs = function Attrs a -> a | Null -> [] | v -> type_error "to_attrs" v
let to_list = function List l -> l | v -> type_error "to_list" v

let numeric2 name fi ff a b =
  match (a, b) with
  | Int x, Int y -> Int (fi x y)
  | (Int _ | Float _), (Int _ | Float _) -> Float (ff (to_float a) (to_float b))
  | Int _, v | Float _, v | v, _ -> type_error name v

let add a b =
  match (a, b) with
  | Str x, Str y -> Str (x ^ y)
  | Attrs x, Attrs y ->
    (* attribute-set union, preserving order of first appearance *)
    Attrs (x @ List.filter (fun a' -> not (List.exists (Attribute.equal a') x)) y)
  | _ -> numeric2 "add" ( + ) ( +. ) a b

let sub = numeric2 "sub" ( - ) ( -. )
let mul = numeric2 "mul" ( * ) ( *. )

let div a b =
  match (a, b) with
  | Int x, Int y when y <> 0 && x mod y = 0 -> Int (x / y)
  | (Int _ | Float _), (Int _ | Float _) ->
    let d = to_float b in
    if Float.equal d 0. then type_error "div by zero" b
    else Float (to_float a /. d)
  | v, _ -> type_error "div" v

let cmp (c : Predicate.comparison) a b =
  let test (n : int) =
    match c with
    | Eq -> n = 0
    | Ne -> n <> 0
    | Lt -> n < 0
    | Le -> n <= 0
    | Gt -> n > 0
    | Ge -> n >= 0
  in
  match (c, a, b) with
  | Predicate.Eq, _, _ -> equal a b
  | Predicate.Ne, _, _ -> not (equal a b)
  | _, (Int _ | Float _), (Int _ | Float _) ->
    test (Float.compare (to_float a) (to_float b))
  | _, Str x, Str y -> test (String.compare x y)
  | _, v, _ -> type_error "cmp" v

let truthy = function Bool b -> b | v -> type_error "test must be boolean" v
