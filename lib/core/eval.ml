module Value = Prairie_value.Value
module Binding = Pattern.Binding

exception Rule_error of string

let rule_error fmt = Printf.ksprintf (fun m -> raise (Rule_error m)) fmt

let rec eval_expr helpers (b : Binding.t) (e : Action.expr) : Value.t =
  match e with
  | Action.Const v -> v
  | Action.Desc d ->
    rule_error "descriptor %s used as a value (whole-descriptor reads are \
                only legal in whole-descriptor assignments)" d
  | Action.Prop (d, p) -> Descriptor.get (Binding.desc b d) p
  | Action.Call (name, args) ->
    Helper_env.call helpers name (List.map (eval_expr helpers b) args)
  | Action.Binop (op, e1, e2) -> eval_binop helpers b op e1 e2
  | Action.Unop (Action.Not, e1) ->
    Value.Bool (not (Value.truthy (eval_expr helpers b e1)))
  | Action.Unop (Action.Neg, e1) -> (
    match eval_expr helpers b e1 with
    | Value.Int i -> Value.Int (-i)
    | v -> Value.Float (-.Value.to_float v))

and eval_binop helpers b op e1 e2 =
  match op with
  | Action.And ->
    (* short-circuit, so tests can guard partial reads *)
    if Value.truthy (eval_expr helpers b e1) then eval_expr helpers b e2
    else Value.Bool false
  | Action.Or ->
    if Value.truthy (eval_expr helpers b e1) then Value.Bool true
    else eval_expr helpers b e2
  | Action.Add -> Value.add (eval_expr helpers b e1) (eval_expr helpers b e2)
  | Action.Sub -> Value.sub (eval_expr helpers b e1) (eval_expr helpers b e2)
  | Action.Mul -> Value.mul (eval_expr helpers b e1) (eval_expr helpers b e2)
  | Action.Div -> Value.div (eval_expr helpers b e1) (eval_expr helpers b e2)
  | Action.Cmp c ->
    Value.Bool (Value.cmp c (eval_expr helpers b e1) (eval_expr helpers b e2))

let eval_test helpers b e =
  match eval_expr helpers b e with
  | Value.Bool v -> v
  | v -> rule_error "rule test evaluated to non-boolean %s" (Value.to_repr v)

let exec_stmt ~protected helpers (b : Binding.t) (s : Action.stmt) =
  let target = Action.assigned_descriptor s in
  if List.mem target protected then
    rule_error "action assigns to LHS descriptor %s (immutable)" target;
  match s with
  | Action.Assign_desc (d, Action.Desc src) ->
    Binding.bind_desc b d (Binding.desc b src)
  | Action.Assign_desc (d, e) -> (
    (* permit helper calls that conceptually return descriptors encoded as
       property lists?  No: the paper's whole-descriptor assignments are
       always copies. *)
    match e with
    | Action.Const Value.Null -> Binding.bind_desc b d Descriptor.empty
    | _ ->
      rule_error "whole-descriptor assignment to %s requires a descriptor on \
                  the right-hand side" d)
  | Action.Assign_prop (d, p, e) ->
    let v = eval_expr helpers b e in
    Binding.bind_desc b d (Descriptor.set (Binding.desc b d) p v)

let exec_stmts ~protected helpers b stmts =
  List.fold_left (exec_stmt ~protected helpers) b stmts

let apply_trule helpers (rule : Trule.t) expr =
  match Pattern.matches rule.lhs expr with
  | None -> None
  | Some b ->
    let protected = Trule.input_descriptors rule in
    let b = exec_stmts ~protected helpers b rule.pre_test in
    if eval_test helpers b rule.test then
      let b = exec_stmts ~protected helpers b rule.post_test in
      Some (Pattern.instantiate ~kind:Expr.Operator rule.rhs b)
    else None

type irule_app = {
  rule : Irule.t;
  binding : Binding.t;
}

let begin_irule helpers (rule : Irule.t) expr =
  match Pattern.matches rule.lhs expr with
  | None -> None
  | Some b ->
    if eval_test helpers b rule.test then
      let protected = Irule.input_descriptors rule in
      let b = exec_stmts ~protected helpers b rule.pre_opt in
      Some { rule; binding = b }
    else None

let pose expr d =
  match expr with
  | Expr.Node _ -> Some (Expr.with_descriptor expr d)
  | Expr.Stored (_, own) ->
    let meets (p, v) =
      let actual = Descriptor.get own p in
      match v with
      | Value.Order required ->
        Prairie_value.Order.satisfies ~required ~actual:(Value.to_order actual)
      | _ -> Value.equal v actual
    in
    if List.for_all meets (Descriptor.to_list d) then Some expr else None

let input_requirements t =
  let redescs = Irule.redescriptored_inputs t.rule in
  let input i =
    let sub = Binding.stream t.binding i in
    match List.assoc_opt i redescs with
    | None -> Some (i, sub)
    | Some dvar ->
      Option.map (fun sub -> (i, sub)) (pose sub (Binding.desc t.binding dvar))
  in
  let reqs = List.map input (Pattern.vars t.rule.lhs) in
  if List.mem None reqs then None else Some (List.filter_map Fun.id reqs)

let finish_irule helpers t ~optimized_inputs =
  let redescs = Irule.redescriptored_inputs t.rule in
  (* Rebind stream variables to the optimized subplans, and their descriptor
     variables to the achieved descriptors so that post-opt statements can
     read input costs (paper §2.4: post-opt runs after all inputs are
     optimized). *)
  let b =
    List.fold_left
      (fun b (i, plan) ->
        let b = Binding.bind_stream b i plan in
        let achieved = Expr.descriptor plan in
        let b = Binding.bind_desc b (Pattern.stream_desc_name i) achieved in
        match List.assoc_opt i redescs with
        | Some dvar -> Binding.bind_desc b dvar achieved
        | None -> b)
      t.binding optimized_inputs
  in
  let protected = [ Irule.operator_descriptor t.rule ] in
  let b = exec_stmts ~protected helpers b t.rule.post_opt in
  Pattern.instantiate ~kind:Expr.Algorithm t.rule.rhs b
