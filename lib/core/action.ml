module Value = Prairie_value.Value
module Predicate = Prairie_value.Predicate

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | And
  | Or
  | Cmp of Predicate.comparison

type unop =
  | Not
  | Neg

type expr =
  | Const of Value.t
  | Desc of string
  | Prop of string * string
  | Call of string * expr list
  | Binop of binop * expr * expr
  | Unop of unop * expr

type stmt =
  | Assign_desc of string * expr
  | Assign_prop of string * string * expr

let tt = Const (Value.Bool true)
let int i = Const (Value.Int i)
let float f = Const (Value.Float f)
let str s = Const (Value.Str s)
let prop d p = Prop (d, p)
let call name args = Call (name, args)
let ( &&& ) a b = Binop (And, a, b)
let ( ||| ) a b = Binop (Or, a, b)
let ( === ) a b = Binop (Cmp Predicate.Eq, a, b)
let ( =/= ) a b = Binop (Cmp Predicate.Ne, a, b)

let assigned_descriptor = function
  | Assign_desc (d, _) -> d
  | Assign_prop (d, _, _) -> d

let rec read_descs_acc acc = function
  | Const _ -> acc
  | Desc d | Prop (d, _) -> if List.mem d acc then acc else d :: acc
  | Call (_, args) -> List.fold_left read_descs_acc acc args
  | Binop (_, a, b) -> read_descs_acc (read_descs_acc acc a) b
  | Unop (_, a) -> read_descs_acc acc a

let read_descriptors e = List.sort String.compare (read_descs_acc [] e)

let stmt_read_descriptors = function
  | Assign_desc (_, e) | Assign_prop (_, _, e) -> read_descriptors e

let rec substitute_desc_expr f = function
  | Const _ as e -> e
  | Desc d -> Desc (f d)
  | Prop (d, p) -> Prop (f d, p)
  | Call (name, args) -> Call (name, List.map (substitute_desc_expr f) args)
  | Binop (op, a, b) ->
    Binop (op, substitute_desc_expr f a, substitute_desc_expr f b)
  | Unop (op, a) -> Unop (op, substitute_desc_expr f a)

let substitute_desc f = function
  | Assign_desc (d, e) -> Assign_desc (f d, substitute_desc_expr f e)
  | Assign_prop (d, p, e) -> Assign_prop (f d, p, substitute_desc_expr f e)

(* Sound constant folding: [Some v] only when the expression evaluates to
   [v] under EVERY binding of descriptors and helper functions.  [And]/[Or]
   short-circuit on a constant absorbing element, so [FALSE && f(D1)] folds
   even though the call does not.  Arithmetic and comparisons on
   incompatible constants ([1 + "x"]) would raise at run time, not produce
   a value — those fold to [None], never to a guess. *)
let rec fold_const = function
  | Const v -> Some v
  | Desc _ | Prop _ | Call _ -> None
  | Unop (Not, a) -> (
    match fold_const a with
    | Some (Value.Bool b) -> Some (Value.Bool (not b))
    | _ -> None)
  | Unop (Neg, a) -> (
    match fold_const a with
    | Some (Value.Int i) -> Some (Value.Int (-i))
    | Some (Value.Float f) -> Some (Value.Float (-.f))
    | _ -> None)
  | Binop (And, a, b) -> (
    match (fold_const a, fold_const b) with
    | Some (Value.Bool false), _ | _, Some (Value.Bool false) ->
      Some (Value.Bool false)
    | Some (Value.Bool true), Some (Value.Bool true) -> Some (Value.Bool true)
    | _ -> None)
  | Binop (Or, a, b) -> (
    match (fold_const a, fold_const b) with
    | Some (Value.Bool true), _ | _, Some (Value.Bool true) ->
      Some (Value.Bool true)
    | Some (Value.Bool false), Some (Value.Bool false) ->
      Some (Value.Bool false)
    | _ -> None)
  | Binop (Cmp c, a, b) -> (
    match (fold_const a, fold_const b) with
    | Some va, Some vb -> (
      try Some (Value.Bool (Value.cmp c va vb)) with Value.Type_error _ -> None)
    | _ -> None)
  | Binop (((Add | Sub | Mul | Div) as op), a, b) -> (
    match (fold_const a, fold_const b) with
    | Some va, Some vb -> (
      let f =
        match op with
        | Add -> Value.add
        | Sub -> Value.sub
        | Mul -> Value.mul
        | Div -> Value.div
        | _ -> assert false
      in
      try Some (f va vb) with Value.Type_error _ | Division_by_zero -> None)
    | _ -> None)
