module Ast = Prairie_dsl.Ast
module D = Prairie.Diagnostic
module Pattern = Prairie.Pattern
module Action = Prairie.Action
module Trule = Prairie.Trule
module Irule = Prairie.Irule
module Ruleset = Prairie.Ruleset
module Value = Prairie_value.Value
module Merge = Prairie_p2v.Merge
module Classify = Prairie_p2v.Classify
module Enforcers = Prairie_p2v.Enforcers
module Lint = Prairie_lint.Lint
module Check = Prairie_dsl.Check

let catalogue : D.catalogue =
  [
    ("P000", D.Error, "rule-specification file failed to parse");
    ( "P300",
      D.Warning,
      "T-rule's LHS mentions an operator unreachable from the workload roots" );
    ("P301", D.Warning, "rule test constant-folds to FALSE; the rule can never fire");
    ( "P302",
      D.Warning,
      "non-trivial rule test constant-folds to TRUE; the guard is redundant" );
    ( "P310",
      D.Warning,
      "physical property is required but no I-rule or enforcer produces it" );
    ("P311", D.Warning, "argument property is assigned but never read by any rule");
    ( "P320",
      D.Warning,
      "T-rule is strictly subsumed by a more general unguarded rule" );
    ( "P321",
      D.Warning,
      "unguarded T-rules rewrite the same redex divergently (critical pair)" );
  ]

type config = {
  roots : string list;
      (** workload root operators the reachability closure starts from;
          [[]] means every declared non-enforcer operator (the operators a
          query handed to the optimizer may contain) *)
}

let default_config = { roots = [] }

type report = {
  ruleset : string;
  diagnostics : D.t list;
  reachable : string list;  (** the operator closure (sorted) *)
  dead_rules : string list;  (** T-rules whose test folds to FALSE *)
  unreachable_rules : string list;  (** T-rules flagged P300 *)
  required_physical : string list;  (** physical properties rules request *)
  produced_physical : string list;  (** physical properties producible *)
}

let empty_report name =
  {
    ruleset = name;
    diagnostics = [];
    reachable = [];
    dead_rules = [];
    unreachable_rules = [];
    required_physical = [];
    produced_physical = [];
  }

(* ------------------------------------------------------------------ *)
(* Small walks                                                         *)
(* ------------------------------------------------------------------ *)

(* The sorted, deduplicated operators of a pattern / template. *)
let pattern_ops pat = List.sort_uniq String.compare (List.map fst (Pattern.ops pat))
let tmpl_ops tmpl = List.sort_uniq String.compare (List.map fst (Pattern.tmpl_ops tmpl))

module Sset = Set.Make (String)

(* ------------------------------------------------------------------ *)
(* Constant tests: P301 / P302                                         *)
(* ------------------------------------------------------------------ *)

(* The literal [TRUE] is the DSL's idiom for "no guard": only a composite
   expression that folds to a constant is worth flagging. *)
let check_consts (spec : Ast.spec) =
  let ds = ref [] in
  let dead = ref [] in
  List.iter
    (fun ((kind : [ `Trule | `Irule ]), (r : Ast.rule_body)) ->
      let span = Check.span_of r.Ast.rb_loc in
      match Action.fold_const r.Ast.rb_test with
      | Some (Value.Bool false) ->
        if kind = `Trule then dead := r.Ast.rb_name :: !dead;
        ds :=
          D.warning ~code:"P301" ~rule:r.Ast.rb_name ?span
            ~hint:"delete the rule, or fix the test so it can succeed"
            (Printf.sprintf
               "the test of rule %s constant-folds to FALSE; the rule can \
                never fire"
               r.Ast.rb_name)
          :: !ds
      | Some (Value.Bool true) when not (Lint.is_tt r.Ast.rb_test) ->
        ds :=
          D.warning ~code:"P302" ~rule:r.Ast.rb_name ?span
            ~hint:"write 'test { TRUE }' if the rule is meant to be unguarded"
            (Printf.sprintf
               "the test of rule %s constant-folds to TRUE; the guard is \
                redundant"
               r.Ast.rb_name)
          :: !ds
      | Some _ | None -> ())
    (Ast.rules spec);
  (!ds, List.rev !dead)

(* ------------------------------------------------------------------ *)
(* Operator reachability: P300                                         *)
(* ------------------------------------------------------------------ *)

(* The closure runs over the MERGED transformation rules — enforcer
   operators stripped, rename rules composed away — because that is
   exactly the rule set Volcano executes.  A merged T-rule all of whose
   LHS operators are reachable makes every operator of its RHS template
   reachable; the fixpoint of that relation, seeded with the workload
   roots, is the set of shapes exploration can ever build. *)
let reachability_closure roots (trules : Trule.t list) =
  let reach = ref (Sset.of_list roots) in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (t : Trule.t) ->
        if List.for_all (fun op -> Sset.mem op !reach) (pattern_ops t.Trule.lhs)
        then
          List.iter
            (fun op ->
              if not (Sset.mem op !reach) then begin
                reach := Sset.add op !reach;
                changed := true
              end)
            (tmpl_ops t.Trule.rhs))
      trules
  done;
  !reach

let check_reachability (spec : Ast.spec) roots (merge : Merge.result) =
  let reach = reachability_closure roots merge.Merge.trans_trules in
  let ds = ref [] in
  let unreachable = ref [] in
  List.iter
    (fun (t : Trule.t) ->
      let missing =
        List.filter (fun op -> not (Sset.mem op reach)) (pattern_ops t.Trule.lhs)
      in
      match missing with
      | [] -> ()
      | ops ->
        unreachable := t.Trule.name :: !unreachable;
        ds :=
          D.warning ~code:"P300" ~rule:t.Trule.name
            ?span:(Lint.rule_loc spec t.Trule.name)
            ~hint:
              "no workload root or T-rule output produces the operator; the \
               rule is dead — delete it or extend the roots (--roots)"
            (Printf.sprintf
               "rule %s can never fire: operator%s %s %s unreachable from \
                roots %s"
               t.Trule.name
               (if List.length ops > 1 then "s" else "")
               (String.concat ", " ops)
               (if List.length ops > 1 then "are" else "is")
               (String.concat ", " roots))
          :: !ds)
    merge.Merge.trans_trules;
  (!ds, List.sort String.compare (Sset.elements reach), List.rev !unreachable)

(* ------------------------------------------------------------------ *)
(* Property dataflow: P310 / P311                                      *)
(* ------------------------------------------------------------------ *)

let prop_assignments stmts =
  List.filter_map
    (function
      | Action.Assign_prop (d, p, _) -> Some (d, p) | Action.Assign_desc _ -> None)
    stmts

let rec expr_prop_reads acc = function
  | Action.Const _ | Action.Desc _ -> acc
  | Action.Prop (_, p) -> p :: acc
  | Action.Call (_, args) -> List.fold_left expr_prop_reads acc args
  | Action.Binop (_, a, b) -> expr_prop_reads (expr_prop_reads acc a) b
  | Action.Unop (_, a) -> expr_prop_reads acc a

(* Physical properties a merged rule set REQUIRES: assignments to a
   requirement descriptor — a re-descriptored stream variable of a T-rule
   RHS or of an I-rule RHS (pre-opt pushes the requirement down before the
   input is optimized).  Each comes back with the requesting rule. *)
let required_physical_props physical (merge : Merge.result) =
  let is_physical p = List.mem p physical in
  let of_trule (t : Trule.t) =
    let redesc =
      let rec go acc = function
        | Pattern.Tvar (_, Some d) -> d :: acc
        | Pattern.Tvar (_, None) -> acc
        | Pattern.Tnode (_, _, subs) -> List.fold_left go acc subs
      in
      go [] t.Trule.rhs
    in
    List.filter_map
      (fun (d, p) ->
        if List.mem d redesc && is_physical p then Some (p, t.Trule.name)
        else None)
      (prop_assignments (t.Trule.pre_test @ t.Trule.post_test))
  in
  let of_irule (i : Irule.t) =
    let redesc = List.map snd (Irule.redescriptored_inputs i) in
    List.filter_map
      (fun (d, p) ->
        if List.mem d redesc && is_physical p then Some (p, i.Irule.name)
        else None)
      (prop_assignments i.Irule.pre_opt)
  in
  List.concat_map of_trule merge.Merge.trans_trules
  @ List.concat_map of_irule merge.Merge.impl_irules

(* Physical properties the rule set can PRODUCE: what enforcers enforce,
   plus what an I-rule establishes on its output descriptor (e.g. the
   index order an Index_scan delivers). *)
let produced_physical_props physical (merge : Merge.result) =
  let is_physical p = List.mem p physical in
  let from_enforcers =
    List.concat_map
      (fun (i : Enforcers.info) -> i.Enforcers.enforced_properties)
      merge.Merge.enforcer_infos
  in
  let from_irules =
    List.concat_map
      (fun (i : Irule.t) ->
        let out = Irule.algorithm_descriptor i in
        List.filter_map
          (fun (d, p) ->
            if String.equal d out && is_physical p then Some p else None)
          (prop_assignments (i.Irule.pre_opt @ i.Irule.post_opt)))
      merge.Merge.impl_irules
  in
  List.sort_uniq String.compare (from_enforcers @ from_irules)

let check_property_flow (spec : Ast.spec) ruleset (merge : Merge.result) =
  let ds = ref [] in
  let classification = Classify.classify ruleset in
  let physical = classification.Classify.physical in
  let required = required_physical_props physical merge in
  let produced = produced_physical_props physical merge in
  (* P310: a requirement nothing can establish — the search will reject
     every plan that needs it (caught today only as a P220/P210
     counterexample at verification time) *)
  let props = List.sort_uniq String.compare (List.map fst required) in
  List.iter
    (fun p ->
      if not (List.mem p produced) then begin
        let requesters =
          List.sort_uniq String.compare
            (List.filter_map
               (fun (p', r) -> if String.equal p p' then Some r else None)
               required)
        in
        let first = List.hd requesters in
        let related =
          List.filter_map
            (fun r ->
              match Lint.rule_loc spec r with
              | Some s when not (String.equal r first) -> Some (r, s)
              | _ -> None)
            requesters
        in
        ds :=
          D.warning ~code:"P310" ~rule:first
            ?span:(Lint.rule_loc spec first)
            ~related
            ~hint:
              "add an enforcer (Null I-rule) or an I-rule that assigns the \
               property on its output descriptor"
            (Printf.sprintf
               "physical property %s is required by %s but no I-rule or \
                enforcer produces it"
               p
               (String.concat ", " requesters))
          :: !ds
      end)
    props;
  (* P311: an argument property someone computes but nobody inspects —
     assignments with no Prop read anywhere in any rule's test or actions.
     COST properties are read implicitly by plan costing and physical
     properties by the satisfaction check, so only arguments qualify. *)
  let all_rules = Ast.rules spec in
  let reads =
    Sset.of_list
      (List.concat_map
         (fun (_, (r : Ast.rule_body)) ->
           List.fold_left
             (fun acc s ->
               match s with
               | Action.Assign_desc (_, e) | Action.Assign_prop (_, _, e) ->
                 expr_prop_reads acc e)
             (expr_prop_reads [] r.Ast.rb_test)
             (r.Ast.rb_pre @ r.Ast.rb_post))
         all_rules)
  in
  let assigners p =
    List.filter_map
      (fun (_, (r : Ast.rule_body)) ->
        if
          List.exists
            (fun (_, p') -> String.equal p p')
            (prop_assignments (r.Ast.rb_pre @ r.Ast.rb_post))
        then Some r.Ast.rb_name
        else None)
      all_rules
  in
  List.iter
    (fun p ->
      if not (Sset.mem p reads) then
        match assigners p with
        | [] -> ()
        | first :: _ as who ->
          ds :=
            D.warning ~code:"P311" ~rule:first
              ?span:(Lint.rule_loc spec first)
              ~hint:"remove the dead assignments, or read the property"
              (Printf.sprintf
                 "argument property %s is assigned by %s but never read by \
                  any rule"
                 p
                 (String.concat ", " who))
            :: !ds)
    classification.Classify.argument;
  (!ds, props, produced)

(* ------------------------------------------------------------------ *)
(* Pairwise subsumption and overlap: P320 / P321                       *)
(* ------------------------------------------------------------------ *)

module Imap = Map.Make (Int)

let rec pat_equal a b =
  match (a, b) with
  | Pattern.Pvar i, Pattern.Pvar j -> Int.equal i j
  | Pattern.Pop (n1, _, s1), Pattern.Pop (n2, _, s2) ->
    String.equal n1 n2
    && List.length s1 = List.length s2
    && List.for_all2 pat_equal s1 s2
  | _ -> false

(* Match [general] against [specific] as a second-order pattern: stream
   variables of the general pattern may bind whole sub-patterns of the
   specific one.  Descriptor names are ignored (they are α-renamable). *)
let rec pat_subsume sub general specific =
  match general with
  | Pattern.Pvar i -> (
    match Imap.find_opt i sub with
    | Some prev -> if pat_equal prev specific then Some sub else None
    | None -> Some (Imap.add i specific sub))
  | Pattern.Pop (n, _, gs) -> (
    match specific with
    | Pattern.Pop (n', _, ss)
      when String.equal n n' && List.length gs = List.length ss ->
      List.fold_left2
        (fun acc g s -> Option.bind acc (fun sub -> pat_subsume sub g s))
        (Some sub) gs ss
    | _ -> None)

(* Does template [t] spell out pattern [p] verbatim (plain stream
   variables, same operators)?  Used when a general-rule variable bound a
   composite sub-pattern: the specific rule's RHS must reproduce it. *)
let rec tmpl_reproduces_pat t p =
  match (t, p) with
  | Pattern.Tvar (i, None), Pattern.Pvar j -> Int.equal i j
  | Pattern.Tnode (n, _, ts), Pattern.Pop (n', _, ps) ->
    String.equal n n'
    && List.length ts = List.length ps
    && List.for_all2 tmpl_reproduces_pat ts ps
  | _ -> false

(* Under substitution [sub] from the LHS match, does the general rule's
   RHS template instantiate to the specific rule's RHS?  Re-descriptor
   marks must agree: a requirement push is part of the rewrite. *)
let rec tmpl_subsume sub g s =
  match g with
  | Pattern.Tvar (i, rd) -> (
    match Imap.find_opt i sub with
    | None -> false
    | Some (Pattern.Pvar j) -> (
      match s with
      | Pattern.Tvar (j', rd') ->
        Int.equal j j' && Option.is_some rd = Option.is_some rd'
      | Pattern.Tnode _ -> false)
    | Some (Pattern.Pop _ as p) ->
      (* requirements on a composite image would sit on an interior node
         the specific rule cannot express — no subsumption *)
      Option.is_none rd && tmpl_reproduces_pat s p)
  | Pattern.Tnode (n, _, gs) -> (
    match s with
    | Pattern.Tnode (n', _, ss) ->
      String.equal n n'
      && List.length gs = List.length ss
      && List.for_all2 (tmpl_subsume sub) gs ss
    | Pattern.Tvar _ -> false)

(* [t1] strictly subsumes [t2]: t1 is unguarded, its LHS matches t2's LHS
   with at least one variable bound to a composite sub-pattern (strictness
   — exact-shape duplicates are lint's P008), and its RHS instantiates to
   t2's RHS under the same substitution.  Every redex of t2 is then a
   redex of t1 producing the same rewrite, so t2 is redundant. *)
let strictly_subsumes (t1 : Ast.rule_body) (t2 : Ast.rule_body) =
  Lint.is_tt t1.Ast.rb_test
  &&
  match pat_subsume Imap.empty t1.Ast.rb_lhs t2.Ast.rb_lhs with
  | None -> false
  | Some sub ->
    Imap.exists (fun _ p -> match p with Pattern.Pop _ -> true | _ -> false) sub
    && tmpl_subsume sub t1.Ast.rb_rhs t2.Ast.rb_rhs

let check_subsumption (spec : Ast.spec) =
  let ds = ref [] in
  let trules = Ast.trules spec in
  let emit_pair (general : Ast.rule_body) (specific : Ast.rule_body) =
    let related =
      match Check.span_of general.Ast.rb_loc with
      | Some s -> [ (general.Ast.rb_name, s) ]
      | None -> []
    in
    ds :=
      D.warning ~code:"P320" ~rule:specific.Ast.rb_name
        ?span:(Check.span_of specific.Ast.rb_loc)
        ~related
        ~hint:"delete the rule, or guard it with a discriminating test"
        (Printf.sprintf
           "rule %s is strictly subsumed by the more general unguarded rule \
            %s: every redex it rewrites, %s already rewrites identically"
           specific.Ast.rb_name general.Ast.rb_name general.Ast.rb_name)
      :: !ds
  in
  List.iteri
    (fun i t1 ->
      List.iteri
        (fun j t2 ->
          if i <> j && strictly_subsumes t1 t2 then emit_pair t1 t2)
        trules)
    trules;
  !ds

(* Template shape with requirement marks erased, for comparing a RHS
   against a LHS pattern shape (inverse-pair detection). *)
let rec tmpl_shape_erased = function
  | Pattern.Tvar _ -> "_"
  | Pattern.Tnode (name, _, subs) ->
    name ^ "(" ^ String.concat "," (List.map tmpl_shape_erased subs) ^ ")"

(* P321: two unguarded T-rules over the SAME redex shape rewriting it to
   DIFFERENT shapes — a critical pair.  Both always fire, the results
   diverge, and nothing arbitrates; under memoized search that is a
   deliberate exploration fork, so intentional pairs carry a pragma.
   Exact-shape duplicates (equal RHS too) are P008; inverse pairs undoing
   each other are the termination checks' P030/P031. *)
let check_overlap (spec : Ast.spec) =
  let ds = ref [] in
  let trules =
    List.filter (fun (r : Ast.rule_body) -> Lint.is_tt r.Ast.rb_test)
      (Ast.trules spec)
  in
  let inverse (t1 : Ast.rule_body) (t2 : Ast.rule_body) =
    String.equal (tmpl_shape_erased t1.Ast.rb_rhs) (Lint.pat_shape t2.Ast.rb_lhs)
    && String.equal (tmpl_shape_erased t2.Ast.rb_rhs) (Lint.pat_shape t1.Ast.rb_lhs)
  in
  let rec pairs = function
    | [] -> ()
    | (t1 : Ast.rule_body) :: rest ->
      List.iter
        (fun (t2 : Ast.rule_body) ->
          if
            String.equal (Lint.pat_shape t1.Ast.rb_lhs) (Lint.pat_shape t2.Ast.rb_lhs)
            && not
                 (String.equal
                    (Lint.tmpl_shape t1.Ast.rb_rhs)
                    (Lint.tmpl_shape t2.Ast.rb_rhs))
            && not (inverse t1 t2)
          then begin
            let related =
              match Check.span_of t1.Ast.rb_loc with
              | Some s -> [ (t1.Ast.rb_name, s) ]
              | None -> []
            in
            ds :=
              D.warning ~code:"P321" ~rule:t2.Ast.rb_name
                ?span:(Check.span_of t2.Ast.rb_loc)
                ~related
                ~hint:
                  "guard one rule with a test, or pragma the pair if the \
                   exploration fork is intentional"
                (Printf.sprintf
                   "unguarded rules %s and %s both rewrite shape %s, to \
                    different shapes; both fire on every redex"
                   t1.Ast.rb_name t2.Ast.rb_name (Lint.pat_shape t2.Ast.rb_lhs))
              :: !ds
          end)
        rest;
      pairs rest
  in
  pairs trules;
  !ds

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let check_spec ?(config = default_config) (spec : Ast.spec) =
  let const_ds, dead = check_consts spec in
  let subsume_ds = check_subsumption spec in
  let overlap_ds = check_overlap spec in
  let ruleset = Prairie_dsl.Elaborate.build spec in
  (* the P2V-level analyses need a mergeable rule set; a spec that still
     carries structural errors (lint's department) may not have one *)
  let reach_ds, reachable, unreachable, flow_ds, required, produced =
    match Merge.merge ruleset with
    | exception _ -> ([], [], [], [], [], [])
    | merge ->
      let roots =
        match config.roots with
        | [] ->
          let enforcer_ops =
            List.map
              (fun (i : Enforcers.info) -> i.Enforcers.operator)
              merge.Merge.enforcer_infos
          in
          List.filter
            (fun op -> not (List.mem op enforcer_ops))
            (List.map fst ruleset.Ruleset.operators)
        | roots -> roots
      in
      let reach_ds, reachable, unreachable =
        check_reachability spec roots merge
      in
      let flow_ds, required, produced =
        check_property_flow spec ruleset merge
      in
      (reach_ds, reachable, unreachable, flow_ds, required, produced)
  in
  {
    ruleset = spec.Ast.ruleset_name;
    diagnostics =
      D.normalize (const_ds @ subsume_ds @ overlap_ds @ reach_ds @ flow_ds);
    reachable;
    dead_rules = dead;
    unreachable_rules = unreachable;
    required_physical = required;
    produced_physical = produced;
  }

let analyze_string ?config src =
  match Lint.parse_source src with
  | Error d -> { (empty_report "") with diagnostics = [ d ] }
  | Ok spec ->
    let report = check_spec ?config spec in
    { report with diagnostics = Lint.with_pragmas src report.diagnostics }
