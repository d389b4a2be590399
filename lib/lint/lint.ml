module Ast = Prairie_dsl.Ast
module Lexer = Prairie_dsl.Lexer
module Parser = Prairie_dsl.Parser
module D = Prairie.Diagnostic
module Pattern = Prairie.Pattern
module Action = Prairie.Action
module Trule = Prairie.Trule
module Irule = Prairie.Irule
module Property = Prairie.Property
module Ruleset = Prairie.Ruleset
module Helper_env = Prairie.Helper_env
module Value = Prairie_value.Value
module Order = Prairie_value.Order
module Enforcers = Prairie_p2v.Enforcers
module Classify = Prairie_p2v.Classify

let catalogue : D.catalogue =
  [
    ("P000", D.Error, "syntax error (lexing or parsing failed)");
    ("P001", D.Error, "reference to an undeclared property");
    ("P002", D.Warning, "declared property is never referenced by any rule");
    ("P003", D.Error, "reference to an undeclared operator or algorithm");
    ("P004", D.Warning, "declared operator or algorithm is never used by any rule");
    ("P005", D.Error, "operator or algorithm used with the wrong arity");
    ("P006", D.Error, "duplicate declaration");
    ("P007", D.Error, "duplicate rule name");
    ("P008", D.Warning, "rule duplicates another rule's rewrite with an overlapping test");
    ("P009", D.Error, "operator has no I-rule and can never be implemented");
    ("P010", D.Error, "descriptor variable is read but never bound");
    ("P011", D.Warning, "named descriptor variable is never used");
    ("P012", D.Error, "RHS stream variable is not bound by the LHS pattern");
    ("P013", D.Info, "LHS stream variable does not appear on the RHS");
    ("P014", D.Warning, "stream variable bound more than once in the LHS pattern");
    ("P015", D.Error, "helper function is not registered");
    ("P016", D.Warning, "descriptor name collides with an implicit stream descriptor");
    ("P017", D.Error, "literal does not match the assigned property's declared type");
    ("P020", D.Error, "COST property assigned outside an I-rule post section");
    ("P021", D.Warning, "COST property read in a rule test");
    ("P022", D.Error, "I-rule never assigns a cost to its output descriptor");
    ("P023", D.Warning, "physical property assigned on a logical operator descriptor");
    ("P030", D.Warning, "unguarded self-inverse rewrite (commutativity loop)");
    ("P031", D.Warning, "unguarded rewrite cycle between T-rules");
    ("P040", D.Error, "Null I-rule on a multi-input operator");
    ("P041", D.Warning, "enforcer operator has a non-single-input implementation");
    ("P042", D.Warning, "Null I-rule enforces no property");
    ("P043", D.Warning, "enforcer operator has no enforcer algorithm");
  ]

let span_of (loc : Ast.loc) =
  if loc = Ast.no_loc then None
  else Some { D.line = loc.Lexer.line; column = loc.Lexer.column }

(* ------------------------------------------------------------------ *)
(* Small AST walks                                                     *)
(* ------------------------------------------------------------------ *)

let pattern_nodes pat =
  let rec go acc = function
    | Pattern.Pvar _ -> acc
    | Pattern.Pop (name, _, subs) ->
      List.fold_left go ((name, List.length subs) :: acc) subs
  in
  List.rev (go [] pat)

let tmpl_nodes_arity tmpl =
  let rec go acc = function
    | Pattern.Tvar _ -> acc
    | Pattern.Tnode (name, _, subs) ->
      List.fold_left go ((name, List.length subs) :: acc) subs
  in
  List.rev (go [] tmpl)

(* Named descriptor variables, i.e. the [:Dx] annotations the rule writer
   chose (implicit stream descriptors [D1], [D2], ... are excluded). *)
let named_descs (r : Ast.rule_body) =
  let rec pat acc = function
    | Pattern.Pvar _ -> acc
    | Pattern.Pop (_, d, subs) -> List.fold_left pat (d :: acc) subs
  in
  let rec tmpl acc = function
    | Pattern.Tvar (_, None) -> acc
    | Pattern.Tvar (_, Some d) -> d :: acc
    | Pattern.Tnode (_, d, subs) -> List.fold_left tmpl (d :: acc) subs
  in
  List.sort_uniq String.compare (tmpl (pat [] r.Ast.rb_lhs) r.Ast.rb_rhs)

let rule_stmts (r : Ast.rule_body) = r.Ast.rb_pre @ r.Ast.rb_post

let rule_exprs (r : Ast.rule_body) =
  List.map (function Action.Assign_desc (_, e) | Action.Assign_prop (_, _, e) -> e)
    (rule_stmts r)
  @ [ r.Ast.rb_test ]

(* Properties referenced (read or written) by a rule. *)
let props_of_rule (r : Ast.rule_body) =
  let rec of_expr acc = function
    | Action.Const _ | Action.Desc _ -> acc
    | Action.Prop (_, p) -> p :: acc
    | Action.Call (_, args) -> List.fold_left of_expr acc args
    | Action.Binop (_, a, b) -> of_expr (of_expr acc a) b
    | Action.Unop (_, a) -> of_expr acc a
  in
  let writes =
    List.filter_map
      (function Action.Assign_prop (_, p, _) -> Some p | Action.Assign_desc _ -> None)
      (rule_stmts r)
  in
  List.sort_uniq String.compare
    (writes @ List.fold_left of_expr [] (rule_exprs r))

let helpers_of_rule (r : Ast.rule_body) =
  let rec go acc = function
    | Action.Const _ | Action.Desc _ | Action.Prop _ -> acc
    | Action.Call (name, args) -> List.fold_left go (name :: acc) args
    | Action.Binop (_, a, b) -> go (go acc a) b
    | Action.Unop (_, a) -> go acc a
  in
  List.sort_uniq String.compare (List.fold_left go [] (rule_exprs r))

let is_tt = function
  | Action.Const (Value.Bool true) -> true
  | _ -> false

let is_dont_care_const = function
  | Action.Const (Value.Order Order.Any) -> true
  | _ -> false

(* Operator-shape of a pattern/template with variables erased — the node
   of the termination digraph. *)
let rec pat_shape = function
  | Pattern.Pvar _ -> "_"
  | Pattern.Pop (name, _, subs) ->
    name ^ "(" ^ String.concat "," (List.map pat_shape subs) ^ ")"

(* A re-descriptored stream variable pushes a requirement onto its input —
   a different rewrite than passing the stream through, so it gets its own
   shape marker. *)
let rec tmpl_shape = function
  | Pattern.Tvar (_, None) -> "_"
  | Pattern.Tvar (_, Some _) -> "_!"
  | Pattern.Tnode (name, _, subs) ->
    name ^ "(" ^ String.concat "," (List.map tmpl_shape subs) ^ ")"

(* ------------------------------------------------------------------ *)
(* Family 1: declaration analysis                                      *)
(* ------------------------------------------------------------------ *)

let check_declarations (spec : Ast.spec) =
  let ds = ref [] in
  let emit d = ds := d :: !ds in
  let props = Ast.properties_located spec in
  let ops = Ast.operators_located spec in
  let algs = Ast.algorithms_located spec in
  let rules = Ast.rules spec in
  (* P006: duplicate declarations *)
  let check_dups kind decls =
    let seen = Hashtbl.create 8 in
    List.iter
      (fun (name, loc) ->
        if Hashtbl.mem seen name then
          emit
            (D.error ~code:"P006" ?span:(span_of loc)
               ~hint:"remove or rename the duplicate declaration"
               (Printf.sprintf "duplicate %s declaration %s" kind name))
        else Hashtbl.add seen name loc)
      decls
  in
  check_dups "property" (List.map (fun (n, _, l) -> (n, l)) props);
  check_dups "operator" (List.map (fun (n, _, l) -> (n, l)) ops);
  check_dups "algorithm" (List.map (fun (n, _, l) -> (n, l)) algs);
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
    (Irule.null_algorithm, 1) :: List.map (fun (n, a, _) -> (n, a)) algs
  in
  (* P003 / P005: every pattern and template node against the declarations *)
  let check_node rule_name loc (name, arity) =
    match
      (List.assoc_opt name declared_ops, List.assoc_opt name declared_algs)
    with
    | None, None ->
      emit
        (D.error ~code:"P003" ~rule:rule_name ?span:(span_of loc)
           ~hint:
             (Printf.sprintf "declare it: 'operator %s(%d);' or 'algorithm %s(%d);'"
                name arity name arity)
           (Printf.sprintf "undeclared operation %s" name))
    | Some declared, _ | None, Some declared ->
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
        (pattern_nodes r.Ast.rb_lhs @ tmpl_nodes_arity r.Ast.rb_rhs))
    rules;
  (* P001 / P002: property references vs declarations *)
  let declared_props = List.map (fun (n, _, _) -> n) props in
  let used_props =
    List.sort_uniq String.compare
      (List.concat_map (fun (_, r) -> props_of_rule r) rules)
  in
  List.iter
    (fun (_, r) ->
      List.iter
        (fun p ->
          if not (List.mem p declared_props) then
            emit
              (D.error ~code:"P001" ~rule:r.Ast.rb_name ?span:(span_of r.Ast.rb_loc)
                 ~hint:(Printf.sprintf "add 'property %s : <TYPE>;'" p)
                 (Printf.sprintf "property %s is not declared" p)))
        (props_of_rule r))
    rules;
  List.iter
    (fun (n, _, loc) ->
      if not (List.mem n used_props) then
        emit
          (D.warning ~code:"P002" ?span:(span_of loc)
             ~hint:"remove the declaration, or reference the property in a rule"
             (Printf.sprintf "property %s is declared but never referenced" n)))
    props;
  (* P004: unused operators/algorithms *)
  let used_ops =
    List.sort_uniq String.compare
      (List.concat_map
         (fun (_, r) ->
           List.map fst
             (pattern_nodes r.Ast.rb_lhs @ tmpl_nodes_arity r.Ast.rb_rhs))
         rules)
  in
  let check_used kind decls =
    List.iter
      (fun (n, _, loc) ->
        if not (List.mem n used_ops) then
          emit
            (D.warning ~code:"P004" ?span:(span_of loc)
               (Printf.sprintf "%s %s is declared but never used by any rule" kind n)))
      decls
  in
  check_used "operator" ops;
  check_used "algorithm" algs;
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
  (* P008: same rewrite (LHS and RHS shapes) with an overlapping test *)
  let overlapping t1 t2 = is_tt t1 || is_tt t2 || t1 = t2 in
  let rec pairs = function
    | [] -> ()
    | (k1, r1) :: rest ->
      List.iter
        (fun (k2, r2) ->
          if
            k1 = k2
            && String.equal (pat_shape r1.Ast.rb_lhs) (pat_shape r2.Ast.rb_lhs)
            && String.equal (tmpl_shape r1.Ast.rb_rhs) (tmpl_shape r2.Ast.rb_rhs)
            && (match k1 with
               | `Irule ->
                 (* same algorithm — alternative implementations are fine *)
                 Pattern.root_operator r1.Ast.rb_lhs = Pattern.root_operator r2.Ast.rb_lhs
               | `Trule -> true)
            && overlapping r1.Ast.rb_test r2.Ast.rb_test
          then
            emit
              (D.warning ~code:"P008" ~rule:r2.Ast.rb_name
                 ?span:(span_of r2.Ast.rb_loc)
                 ~hint:"add a discriminating test or remove one of the rules"
                 (Printf.sprintf
                    "rule %s repeats rule %s's rewrite with an overlapping test; \
                     both fire on every match"
                    r2.Ast.rb_name r1.Ast.rb_name)))
        rest;
      pairs rest
  in
  pairs rules;
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
      if List.mem n used_ops && not (List.mem n implemented) then
        emit
          (D.error ~code:"P009" ?span:(span_of loc)
             ~hint:"add an I-rule with this operator on its LHS"
             (Printf.sprintf
                "operator %s has no I-rule: expressions using it can never be \
                 implemented"
                n)))
    ops;
  !ds

(* ------------------------------------------------------------------ *)
(* Family 2: binding analysis                                          *)
(* ------------------------------------------------------------------ *)

let check_bindings ?helpers (spec : Ast.spec) =
  let ds = ref [] in
  let emit d = ds := d :: !ds in
  let declared_ty p =
    Option.bind (List.assoc_opt p (Ast.properties spec)) Value.ty_of_string
  in
  List.iter
    (fun (kind, r) ->
      let name = r.Ast.rb_name in
      let span = span_of r.Ast.rb_loc in
      let lhs_vars = Pattern.vars r.Ast.rb_lhs in
      let rhs_vars = Pattern.tmpl_vars r.Ast.rb_rhs in
      let lhs_descs = Pattern.desc_vars r.Ast.rb_lhs in
      let rhs_descs = Pattern.tmpl_desc_vars r.Ast.rb_rhs in
      (* P012: RHS stream variables must come from the LHS *)
      List.iter
        (fun v ->
          if not (List.mem v lhs_vars) then
            emit
              (D.error ~code:"P012" ~rule:name ?span
                 (Printf.sprintf
                    "RHS stream variable ?%d is not bound by the LHS pattern" v)))
        rhs_vars;
      (* P013: LHS stream variables that the rewrite drops *)
      List.iter
        (fun v ->
          if not (List.mem v rhs_vars) then
            emit
              (D.info ~code:"P013" ~rule:name ?span
                 (Printf.sprintf
                    "LHS stream variable ?%d does not appear on the RHS; the \
                     input stream is discarded"
                    v)))
        lhs_vars;
      (* P014: non-linear LHS patterns silently overwrite bindings *)
      let rec raw_vars acc = function
        | Pattern.Pvar i -> i :: acc
        | Pattern.Pop (_, _, subs) -> List.fold_left raw_vars acc subs
      in
      let raw = raw_vars [] r.Ast.rb_lhs in
      List.iter
        (fun v ->
          if List.length (List.filter (Int.equal v) raw) > 1 then
            emit
              (D.warning ~code:"P014" ~rule:name ?span
                 ~hint:"pattern matching binds the variable twice; the second \
                        binding wins silently"
                 (Printf.sprintf "stream variable ?%d is bound more than once \
                                  in the LHS" v)))
        lhs_vars;
      (* P016: a chosen descriptor name that collides with an implicit
         stream descriptor aliases two different streams *)
      let implicit =
        List.map Pattern.stream_desc_name
          (List.sort_uniq Int.compare (lhs_vars @ rhs_vars))
      in
      List.iter
        (fun d ->
          if List.mem d implicit then
            emit
              (D.warning ~code:"P016" ~rule:name ?span
                 ~hint:"rename the descriptor; Dn is reserved for stream ?n"
                 (Printf.sprintf
                    "descriptor %s collides with the implicit descriptor of a \
                     stream variable"
                    d)))
        (named_descs r);
      (* P010: reads of descriptors that are neither pattern-bound nor
         assigned by an earlier statement.  The LHS descriptors (including
         implicit stream descriptors) are bound at match time; RHS
         descriptors are outputs that statements must fill before use. *)
      let bound = ref lhs_descs in
      let is_bound d = List.mem d !bound in
      let read_check section e =
        List.iter
          (fun d ->
            if not (is_bound d) then
              let flavor =
                if List.mem d rhs_descs then
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
            if not (is_bound d) then bound := d :: !bound)
          stmts
      in
      run_stmts "pre" r.Ast.rb_pre;
      read_check "test" r.Ast.rb_test;
      run_stmts "post" r.Ast.rb_post;
      (* P011: named descriptors that no section ever touches *)
      let touched =
        List.concat_map
          (fun s -> Action.assigned_descriptor s :: Action.stmt_read_descriptors s)
          (rule_stmts r)
        @ Action.read_descriptors r.Ast.rb_test
      in
      List.iter
        (fun d ->
          if not (List.mem d touched) then
            emit
              (D.warning ~code:"P011" ~rule:name ?span
                 (Printf.sprintf
                    "descriptor %s is bound but never read or assigned" d)))
        (named_descs r);
      (* P015: unregistered helper functions *)
      (match helpers with
      | None -> ()
      | Some env ->
        List.iter
          (fun h ->
            if not (Helper_env.mem env h) then
              emit
                (D.error ~code:"P015" ~rule:name ?span
                   ~hint:"register it in the helper environment"
                   (Printf.sprintf "helper function %s is not registered" h)))
          (helpers_of_rule r));
      (* P017: a literal of the wrong kind elaborates silently — a STRING
         stored in a PREDICATE property is not the predicate it spells *)
      List.iter
        (function
          | Action.Assign_prop (d, p, Action.Const v) -> (
            match declared_ty p with
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
        (rule_stmts r);
      ignore kind)
    (Ast.rules spec);
  !ds

(* ------------------------------------------------------------------ *)
(* A best-effort core rule set for the P2V-level analyses              *)
(* ------------------------------------------------------------------ *)

let ruleset_of_spec (spec : Ast.spec) =
  let properties =
    List.filter_map
      (fun (name, ty_name) ->
        Option.map (Property.declare name) (Value.ty_of_string ty_name))
      (Ast.properties spec)
  in
  let well_formed (r : Ast.rule_body) =
    match (r.Ast.rb_lhs, r.Ast.rb_rhs) with
    | Pattern.Pop _, Pattern.Tnode _ -> true
    | _ -> false
  in
  let trules =
    List.map
      (fun (r : Ast.rule_body) ->
        Trule.make ~name:r.Ast.rb_name ~lhs:r.Ast.rb_lhs ~rhs:r.Ast.rb_rhs
          ~pre_test:r.Ast.rb_pre ~test:r.Ast.rb_test ~post_test:r.Ast.rb_post ())
      (List.filter well_formed (Ast.trules spec))
  in
  let irules =
    List.map
      (fun (r : Ast.rule_body) ->
        Irule.make ~name:r.Ast.rb_name ~lhs:r.Ast.rb_lhs ~rhs:r.Ast.rb_rhs
          ~test:r.Ast.rb_test ~pre_opt:r.Ast.rb_pre ~post_opt:r.Ast.rb_post ())
      (List.filter well_formed (Ast.irules spec))
  in
  Ruleset.make ~properties
    ~operators:(List.map fst (Ast.operators spec))
    ~algorithms:(Irule.null_algorithm :: List.map fst (Ast.algorithms spec))
    ~trules ~irules spec.Ast.ruleset_name

let rule_loc (spec : Ast.spec) name =
  match
    List.find_opt (fun (_, r) -> String.equal r.Ast.rb_name name) (Ast.rules spec)
  with
  | Some (_, r) -> span_of r.Ast.rb_loc
  | None -> None

(* ------------------------------------------------------------------ *)
(* Family 3: P2V classification conflicts                              *)
(* ------------------------------------------------------------------ *)

let check_classification (spec : Ast.spec) =
  let ds = ref [] in
  let emit d = ds := d :: !ds in
  let ruleset = ruleset_of_spec spec in
  let cost_props = Property.cost_properties ruleset.Ruleset.properties in
  let is_cost p = List.mem p cost_props in
  let classification = Classify.classify ruleset in
  let physical = classification.Classify.physical in
  let enforcer_ops =
    List.map (fun (i : Enforcers.info) -> i.Enforcers.operator)
      (Enforcers.detect ruleset)
  in
  (* P020: cost is computed bottom-up in I-rule post sections; assigning it
     anywhere else (T-rules, I-rule pre) runs before input costs exist *)
  let scan_stmts rule_name loc where stmts =
    List.iter
      (function
        | Action.Assign_prop (_, p, _) when is_cost p ->
          emit
            (D.error ~code:"P020" ~rule:rule_name ?span:loc
               ~hint:"compute costs in the I-rule post section only"
               (Printf.sprintf
                  "COST property %s is assigned in %s, before input costs are \
                   known"
                  p where))
        | Action.Assign_prop _ | Action.Assign_desc _ -> ())
      stmts
  in
  List.iter
    (fun (kind, r) ->
      let loc = span_of r.Ast.rb_loc in
      match kind with
      | `Trule ->
        scan_stmts r.Ast.rb_name loc "a T-rule pre section" r.Ast.rb_pre;
        scan_stmts r.Ast.rb_name loc "a T-rule post section" r.Ast.rb_post
      | `Irule -> scan_stmts r.Ast.rb_name loc "an I-rule pre section" r.Ast.rb_pre)
    (Ast.rules spec);
  (* P021: tests run before costing *)
  List.iter
    (fun (_, r) ->
      let rec reads_cost = function
        | Action.Const _ | Action.Desc _ -> false
        | Action.Prop (_, p) -> is_cost p
        | Action.Call (_, args) -> List.exists reads_cost args
        | Action.Binop (_, a, b) -> reads_cost a || reads_cost b
        | Action.Unop (_, a) -> reads_cost a
      in
      if reads_cost r.Ast.rb_test then
        emit
          (D.warning ~code:"P021" ~rule:r.Ast.rb_name ?span:(span_of r.Ast.rb_loc)
             "the rule test reads a COST property; tests run before plans are \
              costed"))
    (Ast.rules spec);
  (* P022: every I-rule must produce a cost on its output descriptor *)
  if cost_props = [] then begin
    if Ast.irules spec <> [] then
      emit
        (D.error ~code:"P022"
           ~hint:"declare a property of type COST"
           "no COST-typed property is declared; I-rules cannot cost their plans")
  end
  else
    List.iter
      (fun (r : Ast.rule_body) ->
        match r.Ast.rb_rhs with
        | Pattern.Tvar _ -> ()
        | Pattern.Tnode (_, out, _) ->
          let assigns_cost =
            List.exists
              (function
                | Action.Assign_prop (d, p, _) -> String.equal d out && is_cost p
                | Action.Assign_desc (d, _) -> String.equal d out)
              r.Ast.rb_post
          in
          if not assigns_cost then
            emit
              (D.error ~code:"P022" ~rule:r.Ast.rb_name
                 ?span:(span_of r.Ast.rb_loc)
                 ~hint:
                   (Printf.sprintf "assign %s.%s in the post section" out
                      (List.hd cost_props))
                 (Printf.sprintf
                    "I-rule %s never assigns a cost to its output descriptor %s"
                    r.Ast.rb_name out)))
      (Ast.irules spec);
  (* P023: physical properties belong on stream requirements (re-descriptored
     inputs) or enforcer descriptors, not on logical operator descriptors *)
  List.iter
    (fun (r : Ast.rule_body) ->
      let node_descs = Pattern.tmpl_nodes r.Ast.rb_rhs in
      List.iter
        (function
          | Action.Assign_prop (d, p, e)
            when List.mem p physical && not (is_dont_care_const e) -> (
            match List.find_opt (fun (_, d') -> String.equal d d') node_descs with
            | Some (op, _) when not (List.mem op enforcer_ops) ->
              emit
                (D.warning ~code:"P023" ~rule:r.Ast.rb_name
                   ?span:(span_of r.Ast.rb_loc)
                   ~hint:
                     "physical properties are requested on streams or \
                      established by enforcers"
                   (Printf.sprintf
                      "physical property %s is assigned on logical operator \
                       %s's descriptor %s"
                      p op d))
            | Some _ | None -> ())
          | Action.Assign_prop _ | Action.Assign_desc _ -> ())
        (rule_stmts r))
    (Ast.trules spec);
  !ds

(* ------------------------------------------------------------------ *)
(* Family 4: termination analysis                                      *)
(* ------------------------------------------------------------------ *)

(* The rewrite digraph: one node per operator shape, one edge per T-rule.
   An edge is unguarded when the rule's test is the constant TRUE — nothing
   discriminates the redexes, so following it never stops.  An unguarded
   self-loop is the paper's commutativity hazard (benign only under
   memoized search); a strongly-connected component of unguarded edges is
   a rewrite loop that regenerates its own redexes forever. *)
let check_termination (spec : Ast.spec) =
  let ds = ref [] in
  let emit d = ds := d :: !ds in
  let edges =
    List.map
      (fun (r : Ast.rule_body) ->
        (r, pat_shape r.Ast.rb_lhs, tmpl_shape r.Ast.rb_rhs, is_tt r.Ast.rb_test))
      (Ast.trules spec)
  in
  (* P030: unguarded self-loops *)
  List.iter
    (fun (r, lhs, rhs, unguarded) ->
      if unguarded && String.equal lhs rhs then
        emit
          (D.warning ~code:"P030" ~rule:r.Ast.rb_name ?span:(span_of r.Ast.rb_loc)
             ~hint:
               "safe only under memoized (Volcano-style) search; add a test if \
                the engine does not deduplicate expressions"
             (Printf.sprintf
                "T-rule %s rewrites shape %s to itself with no discriminating \
                 test (commutativity loop)"
                r.Ast.rb_name lhs)))
    edges;
  (* P031: unguarded cycles through at least two shapes (inverse pairs and
     longer loops), via Tarjan SCC over the unguarded edges only *)
  let unguarded_edges =
    List.filter_map
      (fun (r, lhs, rhs, unguarded) ->
        if unguarded && not (String.equal lhs rhs) then Some (r, lhs, rhs)
        else None)
      edges
  in
  let nodes =
    List.sort_uniq String.compare
      (List.concat_map (fun (_, a, b) -> [ a; b ]) unguarded_edges)
  in
  let succ n =
    List.filter_map
      (fun (_, a, b) -> if String.equal a n then Some b else None)
      unguarded_edges
  in
  let index = Hashtbl.create 16 in
  let lowlink = Hashtbl.create 16 in
  let on_stack = Hashtbl.create 16 in
  let stack = ref [] in
  let counter = ref 0 in
  let sccs = ref [] in
  let rec strongconnect v =
    Hashtbl.replace index v !counter;
    Hashtbl.replace lowlink v !counter;
    incr counter;
    stack := v :: !stack;
    Hashtbl.replace on_stack v true;
    List.iter
      (fun w ->
        if not (Hashtbl.mem index w) then begin
          strongconnect w;
          Hashtbl.replace lowlink v
            (min (Hashtbl.find lowlink v) (Hashtbl.find lowlink w))
        end
        else if Hashtbl.find_opt on_stack w = Some true then
          Hashtbl.replace lowlink v
            (min (Hashtbl.find lowlink v) (Hashtbl.find index w)))
      (succ v);
    if Hashtbl.find lowlink v = Hashtbl.find index v then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
          stack := rest;
          Hashtbl.replace on_stack w false;
          if String.equal w v then w :: acc else pop (w :: acc)
      in
      sccs := pop [] :: !sccs
    end
  in
  List.iter (fun n -> if not (Hashtbl.mem index n) then strongconnect n) nodes;
  List.iter
    (fun scc ->
      if List.length scc >= 2 then begin
        let members (_, a, b) = List.mem a scc && List.mem b scc in
        let cycle_rules = List.filter members unguarded_edges in
        let first_rule =
          List.fold_left
            (fun acc (r, _, _) ->
              match acc with None -> Some r | Some _ -> acc)
            None cycle_rules
        in
        let names =
          String.concat ", "
            (List.map (fun (r, _, _) -> r.Ast.rb_name) cycle_rules)
        in
        emit
          (D.warning ~code:"P031"
             ?rule:(Option.map (fun r -> r.Ast.rb_name) first_rule)
             ?span:
               (match first_rule with
               | Some r -> span_of r.Ast.rb_loc
               | None -> None)
             ~hint:"guard at least one rule of the cycle with a test"
             (Printf.sprintf
                "unguarded rewrite cycle between shapes %s (rules %s)"
                (String.concat " -> " scc) names))
      end)
    !sccs;
  !ds

(* ------------------------------------------------------------------ *)
(* Family 5: enforcer sanity                                           *)
(* ------------------------------------------------------------------ *)

let check_enforcers (spec : Ast.spec) =
  let ds = ref [] in
  let emit d = ds := d :: !ds in
  let irules =
    List.filter_map
      (fun (r : Ast.rule_body) ->
        match (r.Ast.rb_lhs, r.Ast.rb_rhs) with
        | Pattern.Pop (op, _, subs), Pattern.Tnode (alg, _, _) ->
          Some (r, op, List.length subs, alg)
        | _ -> None)
      (Ast.irules spec)
  in
  let null_rules =
    List.filter (fun (_, _, _, alg) -> String.equal alg Irule.null_algorithm) irules
  in
  (* P040: enforcers are single-input by construction *)
  List.iter
    (fun ((r : Ast.rule_body), op, arity, _) ->
      if arity <> 1 then
        emit
          (D.error ~code:"P040" ~rule:r.Ast.rb_name ?span:(span_of r.Ast.rb_loc)
             ~hint:"the Volcano translation can only delete single-input nodes"
             (Printf.sprintf
                "Null I-rule %s marks %s as an enforcer, but the operator has \
                 %d inputs"
                r.Ast.rb_name op arity)))
    null_rules;
  (* P041: every other implementation of an enforcer operator must be
     single-input too, or enforcer detection silently mis-translates *)
  List.iter
    (fun ((_ : Ast.rule_body), op, arity, _) ->
      if arity = 1 then
        List.iter
          (fun ((r' : Ast.rule_body), op', arity', alg') ->
            if
              String.equal op op'
              && (not (String.equal alg' Irule.null_algorithm))
              && arity' <> 1
            then
              emit
                (D.warning ~code:"P041" ~rule:r'.Ast.rb_name
                   ?span:(span_of r'.Ast.rb_loc)
                   (Printf.sprintf
                      "enforcer operator %s has implementation %s with %d \
                       inputs; enforcer algorithms must be single-input"
                      op r'.Ast.rb_name arity')))
          irules)
    null_rules;
  (* P042 / P043 on the detected enforcers of the elaborated set *)
  let infos = Enforcers.detect (ruleset_of_spec spec) in
  List.iter
    (fun (i : Enforcers.info) ->
      let null_name = i.Enforcers.null_rule.Irule.name in
      let loc = rule_loc spec null_name in
      if i.Enforcers.enforced_properties = [] then
        emit
          (D.warning ~code:"P042" ~rule:null_name ?span:loc
             ~hint:
               "propagate a property in the pre section, e.g. 'D3.p = D2.p;' \
                on the re-descriptored input"
             (Printf.sprintf
                "Null I-rule %s enforces no property; operator %s becomes a \
                 free no-op"
                null_name i.Enforcers.operator));
      if i.Enforcers.algorithm_rules = [] then
        emit
          (D.warning ~code:"P043" ~rule:null_name ?span:loc
             ~hint:"add an I-rule implementing the operator with an algorithm"
             (Printf.sprintf
                "enforcer operator %s has no enforcer algorithm; nothing can \
                 re-establish %s"
                i.Enforcers.operator
                (match i.Enforcers.enforced_properties with
                | [] -> "its property"
                | ps -> String.concat ", " ps))))
    infos;
  !ds

(* ------------------------------------------------------------------ *)
(* Pragmas                                                             *)
(* ------------------------------------------------------------------ *)

let find_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then None
    else if String.sub hay i nn = needle then Some i
    else go (i + 1)
  in
  if nn = 0 then None else go 0

let is_code s =
  String.length s >= 2
  && s.[0] = 'P'
  && String.for_all (fun c -> c >= '0' && c <= '9') (String.sub s 1 (String.length s - 1))

let allow_pragmas src =
  let marker = "lint:allow" in
  List.concat
    (List.mapi
       (fun i line ->
         match find_sub line marker with
         | None -> []
         | Some j ->
           let rest =
             String.sub line
               (j + String.length marker)
               (String.length line - j - String.length marker)
           in
           (* the justification after "--" is free text *)
           let rest =
             match find_sub rest "--" with
             | Some k -> String.sub rest 0 k
             | None -> rest
           in
           rest
           |> String.map (function ',' | ';' -> ' ' | c -> c)
           |> String.split_on_char ' '
           |> List.filter is_code
           |> List.map (fun code -> (code, i + 1)))
       (String.split_on_char '\n' src))

let apply_pragmas pragmas ds =
  List.map
    (fun (d : D.t) ->
      match List.find_opt (fun (code, _) -> String.equal code d.D.code) pragmas with
      | Some (_, line) when D.is_warning d ->
        let note = Printf.sprintf "downgraded by lint:allow at line %d" line in
        {
          d with
          D.severity = D.Info;
          hint =
            (match d.D.hint with
            | None -> Some note
            | Some h -> Some (h ^ " (" ^ note ^ ")"));
        }
      | _ -> d)
    ds

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let check_spec ?helpers (spec : Ast.spec) =
  D.normalize
    (check_declarations spec
    @ check_bindings ?helpers spec
    @ check_classification spec
    @ check_termination spec
    @ check_enforcers spec)

let lint_string ?helpers src =
  match Parser.parse src with
  | exception Lexer.Lex_error (pos, msg) ->
    [
      D.error ~code:"P000"
        ~span:{ D.line = pos.Lexer.line; column = pos.Lexer.column }
        (Printf.sprintf "lexical error: %s" msg);
    ]
  | exception Parser.Parse_error (pos, msg) ->
    [
      D.error ~code:"P000"
        ~span:{ D.line = pos.Lexer.line; column = pos.Lexer.column }
        (Printf.sprintf "parse error: %s" msg);
    ]
  | spec ->
    D.normalize (apply_pragmas (allow_pragmas src) (check_spec ?helpers spec))

let lint_file ?helpers path =
  let ic = open_in_bin path in
  let src =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  lint_string ?helpers src

let summary = D.summary
