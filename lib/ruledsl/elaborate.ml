module Pattern = Prairie.Pattern
module Value = Prairie_value.Value

exception Elab_error of string list

let pattern_arities pat =
  let rec go acc = function
    | Pattern.Pvar _ -> acc
    | Pattern.Pop (name, _, subs) ->
      List.fold_left go ((name, List.length subs) :: acc) subs
  in
  go [] pat

let tmpl_arities tmpl =
  let rec go acc = function
    | Pattern.Tvar _ -> acc
    | Pattern.Tnode (name, _, subs) ->
      List.fold_left go ((name, List.length subs) :: acc) subs
  in
  go [] tmpl

let elaborate ~helpers (spec : Ast.spec) =
  let errs = ref [] in
  (* [at loc fmt] prefixes the message with the declaration's source
     position, so elaboration failures point at line/column instead of
     being bare strings. *)
  let at (loc : Ast.loc) fmt =
    Printf.ksprintf
      (fun m ->
        let m =
          if loc = Ast.no_loc then m
          else Format.asprintf "%a: %s" Lexer.pp_position loc m
        in
        errs := m :: !errs)
      fmt
  in
  (* properties *)
  let props =
    List.filter_map
      (fun (name, ty_name, loc) ->
        match Value.ty_of_string ty_name with
        | Some ty -> Some (Prairie.Property.declare name ty)
        | None ->
          at loc "property %s: unknown type %s" name ty_name;
          None)
      (Ast.properties_located spec)
  in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (name, _, loc) ->
      if Hashtbl.mem seen name then at loc "duplicate property %s" name
      else Hashtbl.add seen name ())
    (Ast.properties_located spec);
  (* operators / algorithms *)
  let operators = Ast.operators spec in
  let algorithms =
    (Prairie.Irule.null_algorithm, 1) :: Ast.algorithms spec
  in
  let check_arity ~loc rule_name kind decls (name, arity) =
    match List.assoc_opt name decls with
    | Some declared when declared <> arity ->
      at loc "rule %s: %s %s used with arity %d but declared with %d" rule_name
        kind name arity declared
    | Some _ -> ()
    | None -> at loc "rule %s: undeclared %s %s" rule_name kind name
  in
  let known name = List.mem_assoc name operators || List.mem_assoc name algorithms in
  let check_node ~loc rule_name (name, arity) =
    if List.mem_assoc name operators then
      check_arity ~loc rule_name "operator" operators (name, arity)
    else if List.mem_assoc name algorithms then
      check_arity ~loc rule_name "algorithm" algorithms (name, arity)
    else if not (known name) then
      at loc "rule %s: undeclared operation %s" rule_name name
  in
  let check_rule (r : Ast.rule_body) =
    let loc = r.Ast.rb_loc in
    List.iter (check_node ~loc r.Ast.rb_name) (pattern_arities r.Ast.rb_lhs);
    List.iter (check_node ~loc r.Ast.rb_name) (tmpl_arities r.Ast.rb_rhs)
  in
  List.iter check_rule (Ast.trules spec);
  List.iter check_rule (Ast.irules spec);
  let trules =
    List.map
      (fun (r : Ast.rule_body) ->
        Prairie.Trule.make ~name:r.Ast.rb_name ~lhs:r.Ast.rb_lhs
          ~rhs:r.Ast.rb_rhs ~pre_test:r.Ast.rb_pre ~test:r.Ast.rb_test
          ~post_test:r.Ast.rb_post ())
      (Ast.trules spec)
  in
  let irules =
    List.map
      (fun (r : Ast.rule_body) ->
        Prairie.Irule.make ~name:r.Ast.rb_name ~lhs:r.Ast.rb_lhs
          ~rhs:r.Ast.rb_rhs ~test:r.Ast.rb_test ~pre_opt:r.Ast.rb_pre
          ~post_opt:r.Ast.rb_post ())
      (Ast.irules spec)
  in
  let ruleset =
    Prairie.Ruleset.make ~properties:props
      ~operators:(List.map fst operators)
      ~algorithms:(List.map fst algorithms)
      ~trules ~irules ~helpers spec.Ast.ruleset_name
  in
  (match Prairie.Ruleset.validate ruleset with
  | Ok () -> ()
  | Error es -> List.iter (fun e -> errs := e :: !errs) es);
  match List.rev !errs with
  | [] -> ruleset
  | es -> raise (Elab_error es)

let load_string ~helpers src = elaborate ~helpers (Parser.parse src)
