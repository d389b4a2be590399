type t = {
  name : string;
  lhs : Pattern.t;
  rhs : Pattern.tmpl;
  test : Action.expr;
  pre_opt : Action.stmt list;
  post_opt : Action.stmt list;
}

let null_algorithm = "Null"

let make ?(test = Action.tt) ?(pre_opt = []) ?(post_opt = []) ~name ~lhs ~rhs
    () =
  { name; lhs; rhs; test; pre_opt; post_opt }

let operator t =
  match t.lhs with
  | Pattern.Pop (name, _, _) -> name
  | Pattern.Pvar _ -> invalid_arg "Irule.operator: LHS is a stream variable"

let algorithm t =
  match t.rhs with
  | Pattern.Tnode (name, _, _) -> name
  | Pattern.Tvar _ -> invalid_arg "Irule.algorithm: RHS is a stream variable"

let is_null_rule t = String.equal (algorithm t) null_algorithm

let operator_descriptor t =
  match t.lhs with
  | Pattern.Pop (_, dvar, _) -> dvar
  | Pattern.Pvar _ -> invalid_arg "Irule.operator_descriptor"

let algorithm_descriptor t =
  match t.rhs with
  | Pattern.Tnode (_, dvar, _) -> dvar
  | Pattern.Tvar _ -> invalid_arg "Irule.algorithm_descriptor"

let redescriptored_inputs t =
  match t.rhs with
  | Pattern.Tnode (_, _, subs) ->
    List.filter_map
      (function Pattern.Tvar (i, Some d) -> Some (i, d) | _ -> None)
      subs
  | Pattern.Tvar _ -> []

let input_descriptors t = Pattern.desc_vars t.lhs

let output_descriptors t =
  let inputs = input_descriptors t in
  List.filter (fun d -> not (List.mem d inputs)) (Pattern.tmpl_desc_vars t.rhs)
