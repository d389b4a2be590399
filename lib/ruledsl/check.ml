module D = Prairie.Diagnostic
module Pattern = Prairie.Pattern
module Action = Prairie.Action
module Value = Prairie_value.Value

let catalogue : D.catalogue =
  [
    ("P001", D.Error, "reference to an undeclared property");
    ("P003", D.Error, "reference to an undeclared operator or algorithm");
    ("P005", D.Error, "operator or algorithm used with the wrong arity");
    ("P006", D.Error, "duplicate declaration");
    ("P007", D.Error, "duplicate rule name");
    ("P009", D.Error, "operator has no I-rule and can never be implemented");
    ("P010", D.Error, "descriptor variable is read but never bound");
    ("P012", D.Error, "RHS stream variable is not bound by the LHS pattern");
    ("P015", D.Error, "helper function is not registered");
    ("P017", D.Error, "literal does not match the assigned property's declared type");
    ("P018", D.Error, "property declared with an unknown type");
    ("P019", D.Error, "action assigns a descriptor bound by the LHS pattern");
    ( "P044",
      D.Error,
      "I-rule is not one operator over distinct stream variables implemented \
       by one algorithm over the same variables, in order" );
  ]

let span_of (loc : Ast.loc) =
  if loc = Ast.no_loc then None
  else Some { D.line = loc.Lexer.line; column = loc.Lexer.column }

(* String-keyed lookups without polymorphic comparison: the checks run on
   every elaboration. *)
let mem s = List.exists (String.equal s)

let assoc s l = List.find_map (fun (k, v) -> if String.equal k s then Some v else None) l

let rule_stmts (r : Ast.rule_body) = r.Ast.rb_pre @ r.Ast.rb_post

(* [f] on every node of the rule's expressions, and [on_write] on every
   property a statement assigns. *)
let iter_rule ?(on_write = ignore) f (r : Ast.rule_body) =
  let rec expr e =
    f e;
    match e with
    | Action.Const _ | Action.Desc _ | Action.Prop _ -> ()
    | Action.Call (_, args) -> List.iter expr args
    | Action.Binop (_, a, b) -> expr a; expr b
    | Action.Unop (_, a) -> expr a
  in
  let stmt = function
    | Action.Assign_desc (_, e) -> expr e
    | Action.Assign_prop (_, p, e) -> on_write p; expr e
  in
  List.iter stmt r.Ast.rb_pre;
  expr r.Ast.rb_test;
  List.iter stmt r.Ast.rb_post

let iter_props f r =
  iter_rule ~on_write:f (function Action.Prop (_, p) -> f p | _ -> ()) r

(* ------------------------------------------------------------------ *)
(* Declarations                                                        *)
(* ------------------------------------------------------------------ *)

let check_declarations emit (spec : Ast.spec) =
  let props = Ast.properties_located spec in
  let ops = Ast.operators_located spec in
  let algs = Ast.algorithms_located spec in
  let rules = Ast.rules spec in
  (* P018: property types the value model does not know *)
  List.iter
    (fun (n, ty, loc) ->
      if Value.ty_of_string ty = None then
        emit
          (D.error ~code:"P018" ?span:(span_of loc)
             ~hint:
               "the types are BOOL, INT, FLOAT, COST, STRING, ORDER, PREDICATE, \
                ATTRIBUTES and LIST"
             (Printf.sprintf "property %s has unknown type %s" n ty)))
    props;
  (* P006: duplicate declarations *)
  let check_dups kind decls =
    ignore
      (List.fold_left
         (fun seen (name, _, loc) ->
           if mem name seen then
             emit
               (D.error ~code:"P006" ?span:(span_of loc)
                  ~hint:"remove or rename the duplicate declaration"
                  (Printf.sprintf "duplicate %s declaration %s" kind name));
           name :: seen)
         [] decls)
  in
  check_dups "property" props;
  check_dups "operator" ops;
  check_dups "algorithm" algs;
  List.iter
    (fun (n, _, loc) ->
      if List.exists (fun (n', _, _) -> String.equal n n') ops then
        emit
          (D.error ~code:"P006" ?span:(span_of loc)
             ~hint:"operators and algorithms share one namespace"
             (Printf.sprintf "%s is declared both as an operator and an algorithm" n)))
    algs;
  (* declared operations, with the implicit single-input Null enforcer *)
  let declared_ops = List.map (fun (n, a, _) -> (n, a)) ops in
  let declared_algs =
    (Prairie.Irule.null_algorithm, 1) :: List.map (fun (n, a, _) -> (n, a)) algs
  in
  (* P003 / P005: every pattern and template node against the declarations *)
  let check_node rule_name loc (name, arity) =
    let declared =
      match assoc name declared_ops with
      | Some _ as d -> d
      | None -> assoc name declared_algs
    in
    match declared with
    | None ->
      emit
        (D.error ~code:"P003" ~rule:rule_name ?span:(span_of loc)
           ~hint:
             (Printf.sprintf "declare it: 'operator %s(%d);' or 'algorithm %s(%d);'"
                name arity name arity)
           (Printf.sprintf "undeclared operation %s" name))
    | Some declared ->
      if declared <> arity then
        emit
          (D.error ~code:"P005" ~rule:rule_name ?span:(span_of loc)
             (Printf.sprintf "%s is used with arity %d but declared with arity %d"
                name arity declared))
  in
  List.iter
    (fun (_, r) ->
      List.iter
        (check_node r.Ast.rb_name r.Ast.rb_loc)
        (Pattern.ops r.Ast.rb_lhs @ Pattern.tmpl_ops r.Ast.rb_rhs))
    rules;
  (* P001: property references vs declarations *)
  List.iter
    (fun (_, r) ->
      iter_props
        (fun p ->
          if not (List.exists (fun (n, _, _) -> String.equal n p) props) then
            emit
              (D.error ~code:"P001" ~rule:r.Ast.rb_name ?span:(span_of r.Ast.rb_loc)
                 ~hint:(Printf.sprintf "add 'property %s : <TYPE>;'" p)
                 (Printf.sprintf "property %s is not declared" p)))
        r)
    rules;
  (* P007: duplicate rule names *)
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (_, r) ->
      if Hashtbl.mem seen r.Ast.rb_name then
        emit
          (D.error ~code:"P007" ~rule:r.Ast.rb_name ?span:(span_of r.Ast.rb_loc)
             (Printf.sprintf "rule name %s is already used" r.Ast.rb_name))
      else Hashtbl.add seen r.Ast.rb_name ())
    rules;
  (* P009: operators that no I-rule implements *)
  let implemented =
    List.filter_map
      (function
        | `Irule, r -> Pattern.root_operator r.Ast.rb_lhs
        | `Trule, _ -> None)
      rules
  in
  List.iter
    (fun (n, _, loc) ->
      if not (mem n implemented) then
        emit
          (D.error ~code:"P009" ?span:(span_of loc)
             ~hint:"add an I-rule with this operator on its LHS"
             (Printf.sprintf
                "operator %s has no I-rule: expressions using it can never be \
                 implemented"
                n)))
    ops

(* ------------------------------------------------------------------ *)
(* Bindings                                                            *)
(* ------------------------------------------------------------------ *)

(* P044: an I-rule implements one operator over its input streams by one
   algorithm over the same streams, in order; the first violation. *)
let irule_shape (r : Ast.rule_body) =
  let show pp x = Format.asprintf "%a" pp x in
  match (r.Ast.rb_lhs, r.Ast.rb_rhs) with
  | Pattern.Pop (_, _, subs), Pattern.Tnode (alg, _, tsubs) -> (
    let vars = List.filter_map (function Pattern.Pvar i -> Some i | Pattern.Pop _ -> None) subs in
    let dup v = List.length (List.filter (Int.equal v) vars) > 1 in
    let tvar = function Pattern.Tvar (i, _) -> Some i | Pattern.Tnode _ -> None in
    match List.find_opt (function Pattern.Pop _ -> true | Pattern.Pvar _ -> false) subs with
    | Some p -> Some (Printf.sprintf "LHS input %s is not a stream variable" (show Render.pattern p))
    | None when List.exists dup vars ->
      Some (Printf.sprintf "LHS binds stream variable ?%d more than once" (List.find dup vars))
    | None when List.map tvar tsubs = List.map Option.some vars -> None
    | None ->
      Some
        (Printf.sprintf "RHS %s does not apply %s to the LHS stream variables %s, in order"
           (show Render.template r.Ast.rb_rhs) alg
           (String.concat ", " (List.map (Printf.sprintf "?%d") vars))))
  | _ -> Some "LHS must be an operator and its RHS an algorithm"

let check_bindings ?helpers emit (spec : Ast.spec) =
  let typed =
    List.filter_map
      (fun (p, ty) -> Option.map (fun ty -> (p, ty)) (Value.ty_of_string ty))
      (Ast.properties spec)
  in
  List.iter
    (fun (kind, r) ->
      let name = r.Ast.rb_name in
      let span = span_of r.Ast.rb_loc in
      let lhs_vars = Pattern.vars r.Ast.rb_lhs in
      let lhs_descs = Pattern.desc_vars r.Ast.rb_lhs in
      (* P012: RHS stream variables must come from the LHS *)
      List.iter
        (fun v ->
          if not (List.exists (Int.equal v) lhs_vars) then
            emit
              (D.error ~code:"P012" ~rule:name ?span
                 (Printf.sprintf
                    "RHS stream variable ?%d is not bound by the LHS pattern" v)))
        (Pattern.tmpl_vars r.Ast.rb_rhs);
      (match kind with
      | `Irule ->
        Option.iter
          (fun m ->
            emit
              (D.error ~code:"P044" ~rule:name ?span
                 ~hint:"an I-rule reads 'OP(?1, .., ?n) : Dx ==> ALG(?1, .., ?n) : Dy'; \
                        rewrite other shapes with T-rules"
                 ("I-rule " ^ m)))
          (irule_shape r)
      | `Trule -> ());
      (* P010: reads of descriptors that are neither pattern-bound nor
         assigned by an earlier statement.  The LHS descriptors (including
         implicit stream descriptors) are bound at match time; RHS
         descriptors are outputs that statements must fill before use.
         P019: statements assign outputs only; LHS descriptors are the
         rule's immutable inputs. *)
      let bound = ref lhs_descs in
      let is_bound d = mem d !bound in
      let read_check section e =
        List.iter
          (fun d ->
            if not (is_bound d) then
              let flavor =
                if mem d (Pattern.tmpl_desc_vars r.Ast.rb_rhs) then
                  Printf.sprintf
                    "descriptor %s is read in the %s section before any \
                     statement assigns it"
                    d section
                else
                  Printf.sprintf
                    "descriptor %s is read in the %s section but never bound" d
                    section
              in
              emit
                (D.error ~code:"P010" ~rule:name ?span
                   ~hint:
                     "bind it on the LHS/RHS or assign it before the first read"
                   flavor))
          (Action.read_descriptors e)
      in
      let run_stmts section stmts =
        List.iter
          (fun s ->
            (match s with
            | Action.Assign_desc (_, e) | Action.Assign_prop (_, _, e) ->
              read_check section e);
            let d = Action.assigned_descriptor s in
            if mem d lhs_descs then
              emit
                (D.error ~code:"P019" ~rule:name ?span
                   ~hint:"assign an RHS descriptor; the LHS descriptors are inputs"
                   (Printf.sprintf
                      "the %s section assigns %s, a descriptor bound by the LHS \
                       pattern"
                      section d))
            else if not (is_bound d) then bound := d :: !bound)
          stmts
      in
      run_stmts "pre" r.Ast.rb_pre;
      read_check "test" r.Ast.rb_test;
      run_stmts "post" r.Ast.rb_post;
      (* P015: unregistered helper functions *)
      Option.iter
        (fun env ->
          iter_rule
            (function
              | Action.Call (h, _) when not (Prairie.Helper_env.mem env h) ->
                emit
                  (D.error ~code:"P015" ~rule:name ?span
                     ~hint:"register it in the helper environment"
                     (Printf.sprintf "helper function %s is not registered" h))
              | _ -> ())
            r)
        helpers;
      (* P017: a literal of the wrong kind elaborates silently — a STRING
         stored in a PREDICATE property is not the predicate it spells *)
      List.iter
        (function
          | Action.Assign_prop (d, p, Action.Const v) -> (
            match assoc p typed with
            | Some ty when not (Value.has_ty v ty) ->
              emit
                (D.error ~code:"P017" ~rule:name ?span
                   ~hint:
                     "use a literal of the declared type (TRUE_PRED is the \
                      always-true PREDICATE, DONT_CARE the unconstrained ORDER)"
                   (Printf.sprintf "%s.%s is declared %s but assigned %s" d p
                      (Value.ty_to_string ty) (Value.to_repr v)))
            | Some _ | None -> ())
          | Action.Assign_prop _ | Action.Assign_desc _ -> ())
        (rule_stmts r))
    (Ast.rules spec)

let errors ?helpers spec =
  let ds = ref [] in
  let emit d = ds := d :: !ds in
  check_declarations emit spec;
  check_bindings ?helpers emit spec;
  D.normalize !ds
