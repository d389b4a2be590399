module Descriptor = Prairie.Descriptor
module Pattern = Prairie.Pattern
module Binding = Prairie.Pattern.Binding
module Trule = Prairie.Trule
module Irule = Prairie.Irule
module Compiled = Prairie.Compiled
module Expr = Prairie.Expr
module Rule = Prairie_volcano.Rule

type t = {
  merge : Merge.result;
  classification : Classify.classification;
  volcano : Rule.ruleset;
  dead_trans : string list;
}

let binding_of_denv denv = { Binding.streams = []; descs = denv }

(* Code generation stages each rule's test and statement lists into
   closures once, at translation time (the analog of P2V emitting C
   code); the closures run on every rule invocation. *)
let trans_of_trule helpers (t : Trule.t) : Rule.trans_rule =
  let protected = Trule.input_descriptors t in
  let pre = Compiled.stmts ~protected helpers t.Trule.pre_test in
  let tst = Compiled.test helpers t.Trule.test in
  let post = Compiled.stmts ~protected helpers t.Trule.post_test in
  {
    Rule.tr_name = t.Trule.name;
    tr_lhs = t.Trule.lhs;
    tr_rhs = t.Trule.rhs;
    tr_cond =
      (fun denv ->
        let b = pre (binding_of_denv denv) in
        if tst b then Some b.Binding.descs else None);
    tr_appl = (fun denv -> (post (binding_of_denv denv)).Binding.descs);
  }

(* Stream variables of an I-rule LHS in positional order. *)
let positional_vars (r : Irule.t) =
  match r.Irule.lhs with
  | Pattern.Pop (_, _, subs) ->
    List.map
      (function
        | Pattern.Pvar i -> i
        | Pattern.Pop _ -> invalid_arg "I-rule LHS inputs must be variables")
      subs
  | Pattern.Pvar _ -> invalid_arg "I-rule LHS must be an operator"

let impl_of_irule helpers ~physical (r : Irule.t) : Rule.impl_rule =
  let op_d = Irule.operator_descriptor r in
  let alg_d = Irule.algorithm_descriptor r in
  let pos_vars = positional_vars r in
  let redescs = Irule.redescriptored_inputs r in
  let protected = Irule.input_descriptors r in
  let tst = Compiled.test helpers r.Irule.test in
  let pre = Compiled.stmts ~protected helpers r.Irule.pre_opt in
  let post = Compiled.stmts ~protected:[ op_d ] helpers r.Irule.post_opt in
  let mk_binding ~op_arg ~req ~inputs =
    let descs =
      (op_d, Descriptor.merge ~base:op_arg ~overrides:req)
      :: List.mapi
           (fun k v -> (Pattern.stream_desc_name v, inputs.(k)))
           pos_vars
    in
    binding_of_denv descs
  in
  {
    Rule.ir_name = r.Irule.name;
    ir_op = Irule.operator r;
    ir_alg = Irule.algorithm r;
    ir_arity = List.length pos_vars;
    ir_cond =
      (fun ~op_arg ~req ~inputs -> tst (mk_binding ~op_arg ~req ~inputs));
    ir_input_reqs =
      (fun ~op_arg ~req ~inputs ->
        let b = pre (mk_binding ~op_arg ~req ~inputs) in
        Array.of_list
          (List.map
             (fun v ->
               match List.assoc_opt v redescs with
               | Some dvar ->
                 Descriptor.restrict (Binding.desc b dvar) physical
               | None -> Descriptor.empty)
             pos_vars));
    ir_finalize =
      (fun ~op_arg ~req ~inputs ->
        (* pre-opt over the achieved input descriptors, then rebind the
           re-descriptored variables to the achieved descriptors (paper
           §2.4: post-opt runs after the inputs are optimized), then
           post-opt. *)
        let b = pre (mk_binding ~op_arg ~req ~inputs) in
        let b =
          List.fold_left
            (fun b (k, v) ->
              match List.assoc_opt v redescs with
              | Some dvar -> Binding.bind_desc b dvar inputs.(k)
              | None -> b)
            b
            (List.mapi (fun k v -> (k, v)) pos_vars)
        in
        Binding.desc (post b) alg_d);
  }

let enforcer_of_irule helpers ~enforced (r : Irule.t) : Rule.enforcer =
  let op_d = Irule.operator_descriptor r in
  let alg_d = Irule.algorithm_descriptor r in
  let stream_v =
    match positional_vars r with
    | [ v ] -> v
    | _ -> invalid_arg "enforcer-algorithm rules take a single stream input"
  in
  let protected = Irule.input_descriptors r in
  let tst = Compiled.test helpers r.Irule.test in
  let pre = Compiled.stmts ~protected helpers r.Irule.pre_opt in
  let post = Compiled.stmts ~protected:[ op_d ] helpers r.Irule.post_opt in
  {
    Rule.en_name = r.Irule.name;
    en_alg = Irule.algorithm r;
    en_applies = (fun ~req -> tst (binding_of_denv [ (op_d, req) ]));
    en_relaxed = (fun ~req -> Descriptor.without req enforced);
    en_finalize =
      (fun ~req ~input ->
        let descs =
          [
            (op_d, Descriptor.merge ~base:input ~overrides:req);
            (Pattern.stream_desc_name stream_v, input);
          ]
        in
        Binding.desc (post (pre (binding_of_denv descs))) alg_d);
  }

let translate (ruleset : Prairie.Ruleset.t) =
  let merge = Merge.merge ruleset in
  let classification = Classify.classify ruleset in
  let helpers = ruleset.Prairie.Ruleset.helpers in
  let physical = classification.Classify.physical in
  (* A T-rule whose test constant-folds to FALSE can never fire; dropping
     it here — before codegen — keeps the indexed and un-indexed search
     paths in exact agreement (neither ever sees the rule, so neither
     records a match for it). *)
  let live_trules, dead_trules =
    List.partition
      (fun (t : Trule.t) ->
        Prairie.Action.fold_const t.Trule.test
        <> Some (Prairie_value.Value.Bool false))
      merge.Merge.trans_trules
  in
  let trans = List.map (trans_of_trule helpers) live_trules in
  let impl =
    List.map (impl_of_irule helpers ~physical) merge.Merge.impl_irules
  in
  let enforcers =
    List.concat_map
      (fun (info : Enforcers.info) ->
        List.map
          (enforcer_of_irule helpers
             ~enforced:info.Enforcers.enforced_properties)
          info.Enforcers.algorithm_rules)
      merge.Merge.enforcer_infos
  in
  let volcano =
    Rule.make_ruleset ~trans ~impl ~enforcers ~physical
      (ruleset.Prairie.Ruleset.name ^ "-p2v")
  in
  {
    merge;
    classification;
    volcano;
    dead_trans = List.map (fun (t : Trule.t) -> t.Trule.name) dead_trules;
  }

let prepare_query t expr =
  let infos = t.merge.Merge.enforcer_infos in
  let info_of op =
    List.find_opt
      (fun (i : Enforcers.info) -> String.equal i.Enforcers.operator op)
      infos
  in
  (* Collect enforced properties of root-level enforcer-operators into the
     required physical properties; delete interior occurrences. *)
  let rec strip_root req = function
    | Expr.Node (Expr.Operator, name, d, [ child ]) as e -> (
      match info_of name with
      | Some info ->
        let props =
          Descriptor.restrict d info.Enforcers.enforced_properties
        in
        strip_root (Descriptor.merge ~base:req ~overrides:props) child
      | None -> (e, req))
    | e -> (e, req)
  in
  let rec strip_interior = function
    | Expr.Stored _ as e -> e
    | Expr.Node (kind, name, d, inputs) -> (
      let inputs = List.map strip_interior inputs in
      match (info_of name, inputs) with
      | Some _, [ child ] -> child
      | _ -> Expr.Node (kind, name, d, inputs))
  in
  let root, req = strip_root Descriptor.empty expr in
  let root =
    match root with
    | Expr.Stored _ -> root
    | Expr.Node (kind, name, d, inputs) ->
      Expr.Node (kind, name, d, List.map strip_interior inputs)
  in
  (root, req)
