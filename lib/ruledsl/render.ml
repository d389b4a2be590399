module Action = Prairie.Action
module Pattern = Prairie.Pattern
module Value = Prairie_value.Value
module Order = Prairie_value.Order
module Predicate = Prairie_value.Predicate

let binop_to_string = function
  | Action.Add -> "+"
  | Action.Sub -> "-"
  | Action.Mul -> "*"
  | Action.Div -> "/"
  | Action.And -> "&&"
  | Action.Or -> "||"
  | Action.Cmp Predicate.Eq -> "=="
  | Action.Cmp Predicate.Ne -> "!="
  | Action.Cmp Predicate.Lt -> "<"
  | Action.Cmp Predicate.Le -> "<="
  | Action.Cmp Predicate.Gt -> ">"
  | Action.Cmp Predicate.Ge -> ">="

(* A float as a literal the lexer reads back exactly: 17 significant
   digits, always with a decimal point and never with an exponent (the
   language has none), so [1e+20] prints as [100000000000000000000.0]. *)
let float_literal f =
  let s = Printf.sprintf "%.17g" f in
  match String.index_opt s 'e' with
  | None -> if String.contains s '.' then s else s ^ ".0"
  | Some i ->
    let sign, mantissa =
      if s.[0] = '-' then ("-", String.sub s 1 (i - 1)) else ("", String.sub s 0 i)
    in
    let digits = String.concat "" (String.split_on_char '.' mantissa) in
    let n = String.length digits in
    (* the value is 0.[digits] * 10^point *)
    let point = int_of_string (String.sub s (i + 1) (String.length s - i - 1)) + 1 in
    if point <= 0 then sign ^ "0." ^ String.make (-point) '0' ^ digits
    else if point >= n then sign ^ digits ^ String.make (point - n) '0' ^ ".0"
    else sign ^ String.sub digits 0 point ^ "." ^ String.sub digits point (n - point)

(* A string as a literal the lexer reads back exactly.  The lexer knows
   three escapes, a backslash before a double quote, a backslash or n,
   and takes every other byte as written; OCaml's %S would escape a tab,
   which the lexer reads back as the letter t. *)
let string_literal s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let rec expr ppf = function
  | Action.Const (Value.Bool true) -> Format.pp_print_string ppf "TRUE"
  | Action.Const (Value.Bool false) -> Format.pp_print_string ppf "FALSE"
  | Action.Const (Value.Int i) -> Format.pp_print_int ppf i
  | Action.Const (Value.Float f) when Float.is_finite f ->
    Format.pp_print_string ppf (float_literal f)
  | Action.Const (Value.Str s) -> Format.pp_print_string ppf (string_literal s)
  | Action.Const (Value.Order Order.Any) -> Format.pp_print_string ppf "DONT_CARE"
  | Action.Const (Value.Pred Predicate.True) ->
    Format.pp_print_string ppf "TRUE_PRED"
  | Action.Const Value.Null -> Format.pp_print_string ppf "NULL"
  | Action.Const v ->
    (* other literals (a non-finite float, a sorted order, ...) have no
       surface syntax; printing a stand-in would change what the rule
       means *)
    invalid_arg
      ("Render.expr: constant without surface syntax: " ^ Value.to_repr v)
  | Action.Desc d -> Format.pp_print_string ppf d
  | Action.Prop (d, p) -> Format.fprintf ppf "%s.%s" d p
  | Action.Call (name, args) ->
    Format.fprintf ppf "%s(" name;
    List.iteri
      (fun i a ->
        if i > 0 then Format.fprintf ppf ", ";
        expr ppf a)
      args;
    Format.fprintf ppf ")"
  | Action.Binop (op, a, b) ->
    Format.fprintf ppf "(%a %s %a)" expr a (binop_to_string op) expr b
  | Action.Unop (Action.Not, a) -> Format.fprintf ppf "!(%a)" expr a
  | Action.Unop (Action.Neg, a) -> Format.fprintf ppf "-(%a)" expr a

let stmt ppf = function
  | Action.Assign_desc (d, e) -> Format.fprintf ppf "%s = %a;" d expr e
  | Action.Assign_prop (d, p, e) -> Format.fprintf ppf "%s.%s = %a;" d p expr e

let rec pattern ppf = function
  | Pattern.Pvar i -> Format.fprintf ppf "?%d" i
  | Pattern.Pop (name, dvar, subs) ->
    Format.fprintf ppf "%s(" name;
    List.iteri
      (fun i s ->
        if i > 0 then Format.fprintf ppf ", ";
        pattern ppf s)
      subs;
    Format.fprintf ppf ") : %s" dvar

let rec template ppf = function
  | Pattern.Tvar (i, None) -> Format.fprintf ppf "?%d" i
  | Pattern.Tvar (i, Some d) -> Format.fprintf ppf "?%d : %s" i d
  | Pattern.Tnode (name, dvar, subs) ->
    Format.fprintf ppf "%s(" name;
    List.iteri
      (fun i s ->
        if i > 0 then Format.fprintf ppf ", ";
        template ppf s)
      subs;
    Format.fprintf ppf ") : %s" dvar

let stmts name ppf = function
  | [] -> ()
  | ss ->
    Format.fprintf ppf "@,@[<v 2>%s {" name;
    List.iter (fun s -> Format.fprintf ppf "@,%a" stmt s) ss;
    Format.fprintf ppf "@]@,}"

let ruleset ppf (rs : Prairie.Ruleset.t) =
  Format.fprintf ppf "@[<v>ruleset %s;@," rs.Prairie.Ruleset.name;
  List.iter
    (fun (p : Prairie.Property.t) ->
      Format.fprintf ppf "@,property %s : %s;" p.Prairie.Property.name
        (Value.ty_to_string p.Prairie.Property.ty))
    rs.Prairie.Ruleset.properties;
  Format.fprintf ppf "@,";
  List.iter
    (fun (op, a) -> Format.fprintf ppf "@,operator %s(%d);" op a)
    rs.Prairie.Ruleset.operators;
  List.iter
    (fun (alg, a) ->
      if not (String.equal alg Prairie.Irule.null_algorithm) then
        Format.fprintf ppf "@,algorithm %s(%d);" alg a)
    rs.Prairie.Ruleset.algorithms;
  List.iter
    (fun (r : Prairie.Trule.t) ->
      Format.fprintf ppf "@,@,@[<v 2>trule %s:@,%a ==> %a@]"
        r.Prairie.Trule.name pattern r.Prairie.Trule.lhs template
        r.Prairie.Trule.rhs;
      stmts "pre" ppf r.Prairie.Trule.pre_test;
      Format.fprintf ppf "@,test { %a }" expr r.Prairie.Trule.test;
      stmts "post" ppf r.Prairie.Trule.post_test)
    rs.Prairie.Ruleset.trules;
  List.iter
    (fun (r : Prairie.Irule.t) ->
      Format.fprintf ppf "@,@,@[<v 2>irule %s:@,%a ==> %a@]"
        r.Prairie.Irule.name pattern r.Prairie.Irule.lhs template
        r.Prairie.Irule.rhs;
      Format.fprintf ppf "@,test { %a }" expr r.Prairie.Irule.test;
      stmts "pre" ppf r.Prairie.Irule.pre_opt;
      stmts "post" ppf r.Prairie.Irule.post_opt)
    rs.Prairie.Ruleset.irules;
  Format.fprintf ppf "@]@."

let ruleset_to_string rs = Format.asprintf "%a" ruleset rs
