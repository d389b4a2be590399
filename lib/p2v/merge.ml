module Trule = Prairie.Trule
module Irule = Prairie.Irule
module Action = Prairie.Action
module Pattern = Prairie.Pattern
module Diagnostic = Prairie.Diagnostic

type result = {
  source : Prairie.Ruleset.t;
  enforcer_infos : Enforcers.info list;
  trans_trules : Trule.t list;
  impl_irules : Irule.t list;
  dropped_operators : string list;
  composed : (string * string) list;
  warnings : Diagnostic.t list;
}

(* ------------------------------------------------------------------ *)
(* Enforcer-operator deletion                                          *)
(* ------------------------------------------------------------------ *)

(* Strip enforcer-operator nodes from a template: [SORT(?1):D4] becomes the
   re-descriptored stream [?1:D4] — the enforcer's descriptor (carrying the
   order requirement computed by the rule's actions) becomes a physical
   property request on the stream. *)
let rec strip_tmpl ~is_enf ~warn ~root tmpl =
  match tmpl with
  | Pattern.Tvar _ -> tmpl
  | Pattern.Tnode (name, dvar, [ Pattern.Tvar (i, None) ]) when is_enf name ->
    Pattern.Tvar (i, Some dvar)
  | Pattern.Tnode (name, dvar, [ sub ]) when is_enf name ->
    (* An enforcer-operator at the RHS root (the per-operator
       enforcer-introduction T-rules of footnote 7) simply disappears: the
       Volcano engine re-establishes the property with the enforcer
       whenever a requirement demands it.  Deeper occurrences lose their
       requirement, which deserves a warning. *)
    if not root then
      warn ~code:"P101"
        (Printf.sprintf
           "enforcer-operator %s (descriptor %s) wraps an interior \
            subexpression; deleting the node loses its requirement"
           name dvar);
    strip_tmpl ~is_enf ~warn ~root sub
  | Pattern.Tnode (name, dvar, subs) ->
    Pattern.Tnode
      (name, dvar, List.map (strip_tmpl ~is_enf ~warn ~root:false) subs)

let rec strip_pat ~is_enf ~warn pat =
  match pat with
  | Pattern.Pvar _ -> pat
  | Pattern.Pop (name, dvar, [ sub ]) when is_enf name ->
    warn ~code:"P102"
      (Printf.sprintf
         "enforcer-operator %s (descriptor %s) occurs on a rule LHS; the \
          node is deleted"
         name dvar);
    strip_pat ~is_enf ~warn sub
  | Pattern.Pop (name, dvar, subs) ->
    Pattern.Pop (name, dvar, List.map (strip_pat ~is_enf ~warn) subs)

(* ------------------------------------------------------------------ *)
(* Rename-rule detection and composition                               *)
(* ------------------------------------------------------------------ *)

type rename = {
  rn_rule : Trule.t;  (** after enforcer stripping *)
  rn_from : string;  (** LHS operator *)
  rn_to : string;  (** RHS operator (the introduced one) *)
  rn_vars : int list;
  rn_redescs : (int * string) list;  (** stream requirements from enforcers *)
}

let rename_candidate (t : Trule.t) =
  match (t.Trule.lhs, t.Trule.rhs) with
  | Pattern.Pop (op, _, subs), Pattern.Tnode (op', _, tsubs)
    when List.length subs = List.length tsubs -> (
    let lvars =
      List.filter_map (function Pattern.Pvar i -> Some i | Pattern.Pop _ -> None) subs
    in
    let tvars =
      List.filter_map
        (function Pattern.Tvar (i, rd) -> Some (i, rd) | Pattern.Tnode _ -> None)
        tsubs
    in
    if
      List.length lvars = List.length subs
      && List.length tvars = List.length tsubs
      && List.map fst tvars = lvars
      && List.sort_uniq Int.compare lvars = List.sort Int.compare lvars
    then
      Some
        {
          rn_rule = t;
          rn_from = op;
          rn_to = op';
          rn_vars = lvars;
          rn_redescs =
            List.filter_map
              (function i, Some d -> Some (i, d) | _, None -> None)
              tvars;
        }
    else None)
  | (Pattern.Pvar _ | Pattern.Pop _), (Pattern.Tvar _ | Pattern.Tnode _) ->
    None

(* [resolve_op_desc t r]: the descriptor-variable substitution that lets
   [r]'s test run before [t]'s actions.  [r]'s test may read its operator
   descriptor; in the composed rule that descriptor ([t]'s RHS root, say
   [D6]) is only computed by [t]'s actions, which run in pre-opt — after
   the test.  If [t]'s actions begin with a whole-descriptor copy
   [D6 = Dsrc] from an LHS descriptor, and no property that [r]'s test
   reads is reassigned on [D6] afterwards, the test can read [Dsrc]
   directly. *)
let resolve_op_desc (t : Trule.t) rhs_desc test_props =
  let stmts = t.Trule.pre_test @ t.Trule.post_test in
  let copy_src =
    List.find_map
      (function
        | Action.Assign_desc (d, Action.Desc src) when String.equal d rhs_desc ->
          Some src
        | Action.Assign_desc _ | Action.Assign_prop _ -> None)
      stmts
  in
  match copy_src with
  | None -> None
  | Some src ->
    let clobbered =
      List.exists
        (function
          | Action.Assign_prop (d, p, _) ->
            String.equal d rhs_desc && List.mem p test_props
          | Action.Assign_desc _ -> false)
        stmts
    in
    if clobbered then None else Some src

let rec props_read_from dvar (e : Action.expr) =
  match e with
  | Action.Const _ | Action.Desc _ -> []
  | Action.Prop (d, p) -> if String.equal d dvar then [ p ] else []
  | Action.Call (_, args) -> List.concat_map (props_read_from dvar) args
  | Action.Binop (_, a, b) -> props_read_from dvar a @ props_read_from dvar b
  | Action.Unop (_, a) -> props_read_from dvar a

(* Compose a rename T-rule with one I-rule of the introduced operator. *)
let compose_rules ~(warn : ?rule:string -> code:string -> string -> unit)
    (rn : rename) (r : Irule.t) : Irule.t option =
  let t = rn.rn_rule in
  let t_lhs_descs = Pattern.desc_vars t.Trule.lhs in
  let t_rhs_root_desc =
    match t.Trule.rhs with
    | Pattern.Tnode (_, d, _) -> d
    | Pattern.Tvar _ -> assert false
  in
  (* t's test must be evaluable at I-rule test time: only LHS reads. *)
  let t_test_ok =
    List.for_all
      (fun d -> List.mem d t_lhs_descs)
      (Action.read_descriptors t.Trule.test)
  in
  if not t_test_ok then begin
    warn ~rule:t.Trule.name ~code:"P103"
      (Printf.sprintf
         "cannot compose %s with %s: the T-rule test reads computed \
          descriptors"
         t.Trule.name r.Irule.name);
    None
  end
  else
    (* Positional correspondence between r's stream variables and t's. *)
    let r_vars = Pattern.vars r.Irule.lhs in
    if List.length r_vars <> List.length rn.rn_vars then None
    else
      let pairs = List.combine r_vars rn.rn_vars in
      let r_op_desc = Irule.operator_descriptor r in
      let r_outputs = Irule.output_descriptors r in
      (* Fresh names for r's output descriptors. *)
      let used = ref (t_lhs_descs @ Pattern.tmpl_desc_vars t.Trule.rhs) in
      let freshen =
        List.map
          (fun d ->
            let rec pick k =
              let cand = Printf.sprintf "Z%d" k in
              if List.mem cand !used then pick (k + 1) else cand
            in
            let f = pick 1 in
            used := f :: !used;
            (d, f))
          r_outputs
      in
      let fresh d = match List.assoc_opt d freshen with Some f -> f | None -> d in
      (* Stream-descriptor substitutions. *)
      let stream_req rv =
        (* r's descriptor for its input rv, in pre-opt position: the
           requirement descriptor pushed by t if any, else t's stream
           descriptor. *)
        let tv = List.assoc rv pairs in
        match List.assoc_opt tv rn.rn_redescs with
        | Some req_d -> req_d
        | None -> Pattern.stream_desc_name tv
      in
      let stream_achieved rv =
        Pattern.stream_desc_name (List.assoc rv pairs)
      in
      let subst_with stream_map d =
        if String.equal d r_op_desc then t_rhs_root_desc
        else
          match
            List.find_opt
              (fun rv -> String.equal d (Pattern.stream_desc_name rv))
              r_vars
          with
          | Some rv -> stream_map rv
          | None -> fresh d
      in
      let sigma_pre = subst_with stream_req in
      let sigma_post = subst_with stream_achieved in
      (* Test substitution: op-descriptor reads must be resolved to an LHS
         descriptor through t's copy chain. *)
      let test_props = props_read_from r_op_desc r.Irule.test in
      let test_reads_op = test_props <> [] in
      let op_src =
        if test_reads_op then resolve_op_desc t t_rhs_root_desc test_props
        else Some t_rhs_root_desc
      in
      match op_src with
      | None ->
        warn ~rule:t.Trule.name ~code:"P104"
          (Printf.sprintf
             "cannot compose %s with %s: the I-rule test reads operator \
              descriptor properties not traceable to the T-rule LHS"
             t.Trule.name r.Irule.name);
        None
      | Some src ->
        let sigma_test d =
          if String.equal d r_op_desc then src else subst_with stream_achieved d
        in
        (* Build the merged rule. *)
        let rhs =
          match r.Irule.rhs with
          | Pattern.Tnode (alg, alg_d, rsubs) ->
            let subs =
              List.map
                (fun rsub ->
                  match rsub with
                  | Pattern.Tvar (rv, rredesc) ->
                    let tv = List.assoc rv pairs in
                    let final =
                      match (rredesc, List.assoc_opt tv rn.rn_redescs) with
                      | Some d, _ -> Some (fresh d)
                      | None, Some req_d -> Some req_d
                      | None, None -> None
                    in
                    Pattern.Tvar (tv, final)
                  | Pattern.Tnode _ -> assert false)
                rsubs
            in
            Pattern.Tnode (alg, fresh alg_d, subs)
          | Pattern.Tvar _ -> assert false
        in
        let test =
          match (t.Trule.test, r.Irule.test) with
          | Action.Const (Prairie_value.Value.Bool true), rt ->
            Action.substitute_desc_expr sigma_test rt
          | tt, Action.Const (Prairie_value.Value.Bool true) -> tt
          | tt, rt ->
            Action.Binop
              (Action.And, tt, Action.substitute_desc_expr sigma_test rt)
        in
        let pre_opt =
          t.Trule.pre_test @ t.Trule.post_test
          @ List.map (Action.substitute_desc sigma_pre) r.Irule.pre_opt
        in
        let post_opt =
          List.map (Action.substitute_desc sigma_post) r.Irule.post_opt
        in
        Some
          (Irule.make
             ~name:(t.Trule.name ^ "+" ^ r.Irule.name)
             ~lhs:t.Trule.lhs ~rhs ~test ~pre_opt ~post_opt ())

(* A rename T-rule that is not composed away — e.g. the stripped
   [JOIN ==> JOPR(?1:D4, ?2:D5)] when another rule also introduces JOPR —
   is kept as a trans rule, but Volcano trans rules operate on logical
   expressions and cannot request physical properties of streams.  The
   requirement statements are therefore moved into every I-rule of the
   introduced operator: its inputs become re-descriptored and the T-rule's
   requirement computations are prepended to its pre-opt section (with the
   T-rule's descriptor variables renamed into the I-rule's frame). *)
let attach_requirements ~(warn : ?rule:string -> code:string -> string -> unit)
    (rn : rename) (r : Irule.t) : Irule.t option =
  if rn.rn_redescs = [] then Some r
  else
    let t = rn.rn_rule in
    let t_root_desc =
      match t.Trule.rhs with
      | Pattern.Tnode (_, d, _) -> d
      | Pattern.Tvar _ -> assert false
    in
    let r_vars = Pattern.vars r.Irule.lhs in
    if List.length r_vars <> List.length rn.rn_vars then None
    else if Irule.redescriptored_inputs r <> [] then begin
      warn ~rule:t.Trule.name ~code:"P106"
        (Printf.sprintf
           "cannot attach %s's requirements to %s: the I-rule already \
            re-descriptors its inputs"
           t.Trule.name r.Irule.name);
      None
    end
    else
      let pairs = List.combine rn.rn_vars r_vars in
      (* The T-rule's requirement descriptors get fresh names in the
         I-rule's frame to avoid collisions with its own variables. *)
      let used =
        ref (Irule.input_descriptors r @ Irule.output_descriptors r)
      in
      let freshened =
        List.map
          (fun (tv, d) ->
            let rec pick k =
              let cand = Printf.sprintf "Q%d" k in
              if List.mem cand !used then pick (k + 1) else cand
            in
            let f = pick 1 in
            used := f :: !used;
            (tv, d, f))
          rn.rn_redescs
      in
      let fresh_of d =
        List.find_map
          (fun (_, old, f) -> if String.equal old d then Some f else None)
          freshened
      in
      let redescs_fresh = List.map (fun (tv, _, f) -> (tv, f)) freshened in
      let redesc_names = List.map snd rn.rn_redescs in
      let t_lhs_desc =
        match t.Trule.lhs with
        | Pattern.Pop (_, d, _) -> d
        | Pattern.Pvar _ -> assert false
      in
      (* Both the T-rule's LHS root descriptor and its RHS root descriptor
         denote the same stream content in the I-rule's frame (the rename
         rule copies one into the other), so both map to the I-rule's
         operator descriptor. *)
      let sigma d =
        match fresh_of d with
        | Some f -> f
        | None ->
          if String.equal d t_root_desc || String.equal d t_lhs_desc then
            Irule.operator_descriptor r
          else (
            match
              List.find_opt
                (fun (tv, _) -> String.equal d (Pattern.stream_desc_name tv))
                pairs
            with
            | Some (_, rv) -> Pattern.stream_desc_name rv
            | None -> d)
      in
      let req_stmts =
        List.filter
          (fun s -> List.mem (Action.assigned_descriptor s) redesc_names)
          (t.Trule.pre_test @ t.Trule.post_test)
      in
      let rhs =
        match r.Irule.rhs with
        | Pattern.Tnode (alg, alg_d, rsubs) ->
          Pattern.Tnode
            ( alg,
              alg_d,
              List.map
                (function
                  | Pattern.Tvar (rv, None) ->
                    let tv =
                      fst (List.find (fun (_, rv') -> rv' = rv) pairs)
                    in
                    Pattern.Tvar (rv, List.assoc_opt tv redescs_fresh)
                  | sub -> sub)
                rsubs )
        | Pattern.Tvar _ -> assert false
      in
      Some
        {
          r with
          Irule.rhs;
          Irule.pre_opt =
            List.map (Action.substitute_desc sigma) req_stmts @ r.Irule.pre_opt;
        }

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let merge (ruleset : Prairie.Ruleset.t) =
  let warnings = ref [] in
  let warn ?rule ~code m =
    warnings := Diagnostic.warning ?rule ~code m :: !warnings
  in
  let infos = Enforcers.detect ruleset in
  let is_enf op = Enforcers.is_enforcer_operator infos op in
  (* 1. Drop the enforcer rules from the I-rule list. *)
  let enforcer_rule_names =
    List.concat_map
      (fun (i : Enforcers.info) ->
        i.Enforcers.null_rule.Irule.name
        :: List.map (fun (r : Irule.t) -> r.Irule.name) i.Enforcers.algorithm_rules)
      infos
  in
  let irules =
    List.filter
      (fun (r : Irule.t) -> not (List.mem r.Irule.name enforcer_rule_names))
      ruleset.Prairie.Ruleset.irules
  in
  (* 2. Strip enforcer-operators from T-rules.  A rule whose LHS was only
        enforcer-operators over a stream variable is dropped: the memo
        holds no enforcer-operator nodes, so nothing could match it. *)
  let trules =
    List.filter_map
      (fun (t : Trule.t) ->
        (* stripping warnings carry the T-rule they fired in *)
        let warn ~code m = warn ~rule:t.Trule.name ~code m in
        match strip_pat ~is_enf ~warn t.Trule.lhs with
        | Pattern.Pvar _ ->
          warn ~code:"P107"
            "the LHS is only an enforcer-operator over a stream variable; \
             nothing in the memo can match it, so the rule is dropped";
          None
        | lhs ->
          Some
            {
              t with
              Trule.lhs;
              Trule.rhs = strip_tmpl ~is_enf ~warn ~root:true t.Trule.rhs;
            })
      ruleset.Prairie.Ruleset.trules
  in
  (* 3. Rename rules.  A self-rename is dropped.  A rename whose introduced
        operator no other rule mentions is composed with every I-rule of
        that operator when all of them compose; any other rename stays a
        trans rule and its stream requirements move onto the introduced
        operator's I-rules. *)
  let composed = ref [] in
  let dropped_ops = ref (List.map (fun i -> i.Enforcers.operator) infos) in
  let keep (ts, irs) (rn : rename) =
    let attach (r : Irule.t) =
      if String.equal (Irule.operator r) rn.rn_to then
        Option.value (attach_requirements ~warn rn r) ~default:r
      else r
    in
    (ts @ [ rn.rn_rule ], List.map attach irs)
  in
  let trules, irules =
    List.fold_left
      (fun (ts, irs) (t : Trule.t) ->
        match rename_candidate t with
        | None -> (ts @ [ t ], irs)
        | Some rn when String.equal rn.rn_from rn.rn_to ->
          (* pure idempotence: JOIN ==> JOIN; drop the rule *)
          if rn.rn_redescs <> [] then
            warn ~rule:t.Trule.name ~code:"P105"
              (Printf.sprintf
                 "rule %s renames %s to itself but pushes requirements; \
                  dropping it anyway"
                 t.Trule.name rn.rn_from);
          (ts, irs)
        | Some rn ->
          let introduced_elsewhere =
            List.exists
              (fun (t' : Trule.t) ->
                (not (String.equal t'.Trule.name t.Trule.name))
                && List.mem_assoc rn.rn_to
                     (Pattern.ops t'.Trule.lhs @ Pattern.tmpl_ops t'.Trule.rhs))
              trules
          in
          let to_compose, others =
            List.partition
              (fun (r : Irule.t) -> String.equal (Irule.operator r) rn.rn_to)
              irs
          in
          if introduced_elsewhere || to_compose = [] then keep (ts, irs) rn
          else
            let merged =
              List.filter_map
                (fun (r : Irule.t) ->
                  Option.map
                    (fun m -> (r.Irule.name, m))
                    (compose_rules ~warn rn r))
                to_compose
            in
            if List.length merged <> List.length to_compose then
              (* partial failure: compose none of them *)
              keep (ts, irs) rn
            else begin
              dropped_ops := rn.rn_to :: !dropped_ops;
              composed :=
                List.rev_append
                  (List.map (fun (name, _) -> (t.Trule.name, name)) merged)
                  !composed;
              (ts, others @ List.map snd merged)
            end)
      ([], irules) trules
  in
  {
    source = ruleset;
    enforcer_infos = infos;
    trans_trules = trules;
    impl_irules = irules;
    dropped_operators = List.rev !dropped_ops;
    composed = List.rev !composed;
    warnings = Diagnostic.normalize !warnings;
  }

let trans_rule_count r = List.length r.trans_trules
let impl_rule_count r = List.length r.impl_irules

let enforcer_count r =
  List.fold_left
    (fun n (i : Enforcers.info) -> n + List.length i.Enforcers.algorithm_rules)
    0 r.enforcer_infos
