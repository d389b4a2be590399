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

let rec expr ppf = function
  | Action.Const (Value.Bool true) -> Format.pp_print_string ppf "TRUE"
  | Action.Const (Value.Bool false) -> Format.pp_print_string ppf "FALSE"
  | Action.Const (Value.Int i) -> Format.pp_print_int ppf i
  | Action.Const (Value.Float f) ->
    let s = Printf.sprintf "%.17g" f in
    let s = if String.contains s '.' || String.contains s 'e' then s else s ^ ".0" in
    Format.pp_print_string ppf s
  | Action.Const (Value.Str s) -> Format.fprintf ppf "%S" s
  | Action.Const (Value.Order Order.Any) -> Format.pp_print_string ppf "DONT_CARE"
  | Action.Const (Value.Pred Predicate.True) ->
    Format.pp_print_string ppf "TRUE_PRED"
  | Action.Const v ->
    (* other literals have no surface syntax; printing a stand-in would
       change what the rule means *)
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

let arity_of_op (rs : Prairie.Ruleset.t) name =
  (* operators appear in rule patterns; recover arity from any occurrence *)
  let rec from_pat = function
    | Pattern.Pvar _ -> None
    | Pattern.Pop (n, _, subs) ->
      if String.equal n name then Some (List.length subs)
      else List.find_map from_pat subs
  in
  let rec from_tmpl = function
    | Pattern.Tvar _ -> None
    | Pattern.Tnode (n, _, subs) ->
      if String.equal n name then Some (List.length subs)
      else List.find_map from_tmpl subs
  in
  let of_trule (r : Prairie.Trule.t) =
    match from_pat r.Prairie.Trule.lhs with
    | Some a -> Some a
    | None -> from_tmpl r.Prairie.Trule.rhs
  in
  let of_irule (r : Prairie.Irule.t) =
    match from_pat r.Prairie.Irule.lhs with
    | Some a -> Some a
    | None -> from_tmpl r.Prairie.Irule.rhs
  in
  match List.find_map of_trule rs.Prairie.Ruleset.trules with
  | Some a -> Some a
  | None -> List.find_map of_irule rs.Prairie.Ruleset.irules

let ruleset ppf (rs : Prairie.Ruleset.t) =
  Format.fprintf ppf "@[<v>ruleset %s;@," rs.Prairie.Ruleset.name;
  List.iter
    (fun (p : Prairie.Property.t) ->
      Format.fprintf ppf "@,property %s : %s;" p.Prairie.Property.name
        (Value.ty_to_string p.Prairie.Property.ty))
    rs.Prairie.Ruleset.properties;
  Format.fprintf ppf "@,";
  List.iter
    (fun op ->
      if not (List.mem op rs.Prairie.Ruleset.algorithms) then
        match arity_of_op rs op with
        | Some a -> Format.fprintf ppf "@,operator %s(%d);" op a
        | None -> ())
    rs.Prairie.Ruleset.operators;
  List.iter
    (fun alg ->
      if not (String.equal alg Prairie.Irule.null_algorithm) then
        match arity_of_op rs alg with
        | Some a -> Format.fprintf ppf "@,algorithm %s(%d);" alg a
        | None -> ())
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
