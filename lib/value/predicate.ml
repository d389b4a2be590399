type comparison = Eq | Ne | Lt | Le | Gt | Ge

type term =
  | T_attr of Attribute.t
  | T_int of int
  | T_float of float
  | T_string of string

type t =
  | True
  | False
  | Cmp of comparison * term * term
  | And of t * t
  | Or of t * t
  | Not of t

let conj a b =
  match (a, b) with
  | True, p | p, True -> p
  | False, _ | _, False -> False
  | _ -> And (a, b)

let rec conjuncts = function
  | True -> []
  | And (a, b) -> conjuncts a @ conjuncts b
  | p -> [ p ]

let of_conjuncts ps = List.fold_left conj True ps

let term_attributes = function
  | T_attr a -> Attribute.Set.singleton a
  | T_int _ | T_float _ | T_string _ -> Attribute.Set.empty

let rec attributes = function
  | True | False -> Attribute.Set.empty
  | Cmp (_, t1, t2) ->
    Attribute.Set.union (term_attributes t1) (term_attributes t2)
  | And (a, b) | Or (a, b) ->
    Attribute.Set.union (attributes a) (attributes b)
  | Not a -> attributes a

let owners p =
  Attribute.Set.fold
    (fun a acc ->
      let o = Attribute.owner a in
      if List.mem o acc then acc else o :: acc)
    (attributes p) []
  |> List.sort String.compare

let references_only ~owners:os p =
  Attribute.Set.for_all (fun a -> List.mem (Attribute.owner a) os) (attributes p)

let split ~owners:os p =
  let mine, rest =
    List.partition (references_only ~owners:os) (conjuncts p)
  in
  (of_conjuncts mine, of_conjuncts rest)

let equality_pairs p =
  List.filter_map
    (function
      | Cmp (Eq, T_attr a, T_attr b) -> Some (a, b)
      | _ -> None)
    (conjuncts p)

let equality_constants p =
  List.filter_map
    (function
      | Cmp (Eq, T_attr a, ((T_int _ | T_float _ | T_string _) as c)) ->
        Some (a, c)
      | Cmp (Eq, ((T_int _ | T_float _ | T_string _) as c), T_attr a) ->
        Some (a, c)
      | _ -> None)
    (conjuncts p)

let is_equijoin p =
  let cs = conjuncts p in
  cs <> []
  && List.for_all
       (function Cmp (Eq, T_attr _, T_attr _) -> true | _ -> false)
       cs
  && List.length (owners p) >= 2

let comparison_to_string = function
  | Eq -> "="
  | Ne -> "<>"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let equal a b = a = b
let compare a b = Stdlib.compare a b
let hash p = Hashtbl.hash p

let compare_terms c t1 t2 =
  let test (cmp : int) =
    match c with
    | Eq -> cmp = 0
    | Ne -> cmp <> 0
    | Lt -> cmp < 0
    | Le -> cmp <= 0
    | Gt -> cmp > 0
    | Ge -> cmp >= 0
  in
  match (t1, t2) with
  | T_int a, T_int b -> test (Int.compare a b)
  | T_float a, T_float b -> test (Float.compare a b)
  | T_int a, T_float b | T_float b, T_int a ->
    test (Float.compare (float_of_int a) b)
  | T_string a, T_string b -> test (String.compare a b)
  | _ -> false

let eval ~lookup p =
  let resolve = function
    | T_attr a -> lookup a
    | (T_int _ | T_float _ | T_string _) as c -> Some c
  in
  let rec go = function
    | True -> true
    | False -> false
    | Cmp (c, t1, t2) -> (
      match (resolve t1, resolve t2) with
      | Some v1, Some v2 -> compare_terms c v1 v2
      | None, _ | _, None -> false)
    | And (a, b) -> go a && go b
    | Or (a, b) -> go a || go b
    | Not a -> not (go a)
  in
  go p

let pp_term ppf = function
  | T_attr a -> Attribute.pp ppf a
  | T_int i -> Format.pp_print_int ppf i
  | T_float f -> Format.fprintf ppf "%g" f
  | T_string s -> Format.fprintf ppf "%S" s

let rec pp ppf = function
  | True -> Format.pp_print_string ppf "true"
  | False -> Format.pp_print_string ppf "false"
  | Cmp (c, t1, t2) ->
    Format.fprintf ppf "%a %s %a" pp_term t1 (comparison_to_string c) pp_term
      t2
  | And (a, b) -> Format.fprintf ppf "(%a and %a)" pp a pp b
  | Or (a, b) -> Format.fprintf ppf "(%a or %a)" pp a pp b
  | Not a -> Format.fprintf ppf "not %a" pp a

let to_string p = Format.asprintf "%a" pp p
