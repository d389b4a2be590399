module Descriptor = Prairie.Descriptor
module Pattern = Prairie.Pattern
module Trule = Prairie.Trule
module Irule = Prairie.Irule
module Compiled = Prairie.Compiled
module Expr = Prairie.Expr
module Rule = Prairie_volcano.Rule

type t = {
  merge : Merge.result;
  classification : Classify.classification;
  volcano : Rule.ruleset;
}

(* Code generation stages each rule's test and statement lists into
   closures over the rule's slot array once, at translation time (the
   analog of P2V emitting C code); the closures run on every rule
   invocation. *)
let trans_of_trule helpers (t : Trule.t) : Rule.trans_rule =
  let protected = Trule.input_descriptors t in
  Rule.trans_rule ~name:t.Trule.name ~lhs:t.Trule.lhs ~rhs:t.Trule.rhs
    ~vars:(Compiled.action_vars [ t.Trule.test ] (t.Trule.pre_test @ t.Trule.post_test))
    (fun slot ->
      let pre = Compiled.stmts ~protected helpers slot t.Trule.pre_test in
      let tst = Compiled.test helpers slot t.Trule.test in
      let post = Compiled.stmts ~protected helpers slot t.Trule.post_test in
      ((fun env -> pre env; tst env), post))

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

(* An I-rule staged over its slot table: the operator descriptor first,
   then the inputs' [Di] in positional order, then everything else. *)
type staged_irule = {
  pos_vars : int list;
  slot : string -> int;
  fresh : op:Descriptor.t -> inputs:Descriptor.t array -> Compiled.env;
      (** the operator descriptor and the inputs' [Di] bound *)
  tst : Compiled.env -> bool;
  pre : Compiled.env -> unit;
  post : Compiled.env -> unit;
  alg : int;  (** the algorithm descriptor's slot *)
}

let stage_irule helpers (r : Irule.t) =
  let pos_vars = positional_vars r in
  let op_d = Irule.operator_descriptor r in
  let slots =
    Compiled.slots
      ((op_d :: List.map Pattern.stream_desc_name pos_vars)
      @ Pattern.tmpl_desc_vars r.Irule.rhs
      @ Compiled.action_vars [ r.Irule.test ] (r.Irule.pre_opt @ r.Irule.post_opt))
  in
  let slot = Compiled.slot slots in
  let n = Array.length slots in
  let op_slot = slot op_d in
  let input_slots =
    Array.of_list (List.map (fun v -> slot (Pattern.stream_desc_name v)) pos_vars)
  in
  let fresh ~op ~inputs =
    let env = Array.make n Descriptor.empty in
    env.(op_slot) <- op;
    Array.iteri (fun k d -> env.(input_slots.(k)) <- d) inputs;
    env
  in
  let protected = Irule.input_descriptors r in
  {
    pos_vars;
    slot;
    fresh;
    tst = Compiled.test helpers slot r.Irule.test;
    pre = Compiled.stmts ~protected helpers slot r.Irule.pre_opt;
    post = Compiled.stmts ~protected:[ op_d ] helpers slot r.Irule.post_opt;
    alg = slot (Irule.algorithm_descriptor r);
  }

let impl_of_irule helpers ~physical (r : Irule.t) : Rule.impl_rule =
  let s = stage_irule helpers r in
  (* (input position, slot of its re-descriptor variable) *)
  let redescs =
    List.concat
      (List.mapi
         (fun k v ->
           match List.assoc_opt v (Irule.redescriptored_inputs r) with
           | Some dvar -> [ (k, s.slot dvar) ]
           | None -> [])
         s.pos_vars)
  in
  let arity = List.length s.pos_vars in
  let physical = Descriptor.String_set.of_list physical in
  let env_of ~op_arg ~req ~inputs =
    s.fresh ~op:(Descriptor.merge ~base:op_arg ~overrides:req) ~inputs
  in
  {
    Rule.ir_name = r.Irule.name;
    ir_op = Irule.operator r;
    ir_alg = Irule.algorithm r;
    ir_arity = arity;
    ir_cond = (fun ~op_arg ~req ~inputs -> s.tst (env_of ~op_arg ~req ~inputs));
    ir_input_reqs =
      (fun ~op_arg ~req ~inputs ->
        let env = env_of ~op_arg ~req ~inputs in
        s.pre env;
        let reqs = Array.make arity Descriptor.empty in
        List.iter
          (fun (k, d) -> reqs.(k) <- Descriptor.restrict_set env.(d) physical)
          redescs;
        reqs);
    ir_finalize =
      (fun ~op_arg ~req ~inputs ->
        (* pre-opt over the achieved input descriptors, then rebind the
           re-descriptored variables to the achieved descriptors (paper
           §2.4: post-opt runs after the inputs are optimized), then
           post-opt. *)
        let env = env_of ~op_arg ~req ~inputs in
        s.pre env;
        List.iter (fun (k, d) -> env.(d) <- inputs.(k)) redescs;
        s.post env;
        env.(s.alg));
  }

let enforcer_of_irule helpers ~enforced (r : Irule.t) : Rule.enforcer =
  let s = stage_irule helpers r in
  if List.length s.pos_vars <> 1 then
    invalid_arg "enforcer-algorithm rules take a single stream input";
  {
    Rule.en_name = r.Irule.name;
    en_alg = Irule.algorithm r;
    en_applies = (fun ~req -> s.tst (s.fresh ~op:req ~inputs:[||]));
    en_relaxed = (fun ~req -> Descriptor.without req enforced);
    en_finalize =
      (fun ~req ~input ->
        let env =
          s.fresh ~op:(Descriptor.merge ~base:input ~overrides:req) ~inputs:[| input |]
        in
        s.pre env;
        s.post env;
        env.(s.alg));
  }

let translate (ruleset : Prairie.Ruleset.t) =
  let merge = Merge.merge ruleset in
  let classification = Classify.classify ruleset in
  let helpers = ruleset.Prairie.Ruleset.helpers in
  let physical = classification.Classify.physical in
  let trans = List.map (trans_of_trule helpers) merge.Merge.trans_trules in
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
  { merge; classification; volcano }

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
