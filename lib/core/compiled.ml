module Value = Prairie_value.Value

let rule_error fmt = Printf.ksprintf (fun m -> raise (Eval.Rule_error m)) fmt

type env = Descriptor.t array
type slots = string array

let slots names =
  let rec go acc = function
    | [] -> Array.of_list (List.rev acc)
    | n :: rest ->
      go (if List.exists (String.equal n) acc then acc else n :: acc) rest
  in
  go [] names

let rec expr_vars acc = function
  | Action.Const _ -> acc
  | Action.Desc d | Action.Prop (d, _) -> d :: acc
  | Action.Call (_, args) -> List.fold_left expr_vars acc args
  | Action.Binop (_, a, b) -> expr_vars (expr_vars acc a) b
  | Action.Unop (_, a) -> expr_vars acc a

let action_vars tests stmts =
  let acc = List.fold_left expr_vars [] tests in
  List.rev
    (List.fold_left
       (fun acc s ->
         match s with
         | Action.Assign_desc (d, e) | Action.Assign_prop (d, _, e) ->
           expr_vars (d :: acc) e)
       acc stmts)

let slot slots name =
  let rec find i =
    if i = Array.length slots then
      invalid_arg (Printf.sprintf "descriptor variable %s has no slot" name)
    else if String.equal slots.(i) name then i
    else find (i + 1)
  in
  find 0

let rec expr helpers slot (e : Action.expr) : env -> Value.t =
  match e with
  | Action.Const v -> fun _ -> v
  | Action.Desc d ->
    rule_error
      "descriptor %s used as a value (whole-descriptor reads are only legal \
       in whole-descriptor assignments)"
      d
  | Action.Prop (d, p) ->
    let i = slot d in
    fun env -> Descriptor.get env.(i) p
  | Action.Call (name, args) -> (
    (* the helper is resolved once, at compilation time *)
    let fn =
      match Helper_env.find helpers name with
      | Some fn -> fn
      | None -> raise (Helper_env.Unknown_helper name)
    in
    match List.map (expr helpers slot) args with
    | [] -> fun _ -> fn []
    | [ c1 ] -> fun env -> fn [ c1 env ]
    | [ c1; c2 ] -> fun env -> fn [ c1 env; c2 env ]
    | [ c1; c2; c3 ] -> fun env -> fn [ c1 env; c2 env; c3 env ]
    | cargs -> fun env -> fn (List.map (fun c -> c env) cargs))
  | Action.Binop (Action.And, e1, e2) ->
    let c1 = expr helpers slot e1 and c2 = expr helpers slot e2 in
    fun env -> if Value.truthy (c1 env) then c2 env else Value.Bool false
  | Action.Binop (Action.Or, e1, e2) ->
    let c1 = expr helpers slot e1 and c2 = expr helpers slot e2 in
    fun env -> if Value.truthy (c1 env) then Value.Bool true else c2 env
  | Action.Binop (op, e1, e2) ->
    let c1 = expr helpers slot e1 and c2 = expr helpers slot e2 in
    let f =
      match op with
      | Action.Add -> Value.add
      | Action.Sub -> Value.sub
      | Action.Mul -> Value.mul
      | Action.Div -> Value.div
      | Action.Cmp c -> fun a b -> Value.Bool (Value.cmp c a b)
      | Action.And | Action.Or -> assert false
    in
    fun env -> f (c1 env) (c2 env)
  | Action.Unop (Action.Not, e1) ->
    let c1 = expr helpers slot e1 in
    fun env -> Value.Bool (not (Value.truthy (c1 env)))
  | Action.Unop (Action.Neg, e1) ->
    let c1 = expr helpers slot e1 in
    fun env ->
      (match c1 env with
      | Value.Int i -> Value.Int (-i)
      | v -> Value.Float (-.Value.to_float v))

let test helpers slot e =
  let c = expr helpers slot e in
  fun env ->
    match c env with
    | Value.Bool v -> v
    | v -> rule_error "rule test evaluated to non-boolean %s" (Value.to_repr v)

let stmt ~protected helpers slot (s : Action.stmt) : env -> unit =
  let target = Action.assigned_descriptor s in
  if List.mem target protected then
    rule_error "action assigns to LHS descriptor %s (immutable)" target;
  match s with
  | Action.Assign_desc (d, Action.Desc src) ->
    let i = slot d and j = slot src in
    fun env -> env.(i) <- env.(j)
  | Action.Assign_desc (d, Action.Const Value.Null) ->
    let i = slot d in
    fun env -> env.(i) <- Descriptor.empty
  | Action.Assign_desc (d, _) ->
    rule_error
      "whole-descriptor assignment to %s requires a descriptor on the \
       right-hand side"
      d
  | Action.Assign_prop (d, p, e) ->
    let i = slot d and c = expr helpers slot e in
    fun env -> env.(i) <- Descriptor.set env.(i) p (c env)

let stmts ~protected helpers slot ss =
  match List.map (stmt ~protected helpers slot) ss with
  | [] -> fun _ -> ()
  | [ c ] -> c
  | compiled -> fun env -> List.iter (fun c -> c env) compiled
