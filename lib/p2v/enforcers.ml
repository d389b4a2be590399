module Irule = Prairie.Irule
module Action = Prairie.Action
module Pattern = Prairie.Pattern

type info = {
  operator : string;
  null_rule : Irule.t;
  algorithm_rules : Irule.t list;
  enforced_properties : string list;
}

(* The Null rule's pre-opt has the fixed shape of paper Eq. 6: a statement
   [D3.p = D2.p] propagating property [p] from the operator descriptor to
   the re-descriptored input stream marks [p] as enforced. *)
let enforced_properties_of (rule : Irule.t) =
  let op_desc = Irule.operator_descriptor rule in
  let redescs = List.map snd (Irule.redescriptored_inputs rule) in
  List.filter_map
    (fun stmt ->
      match stmt with
      | Action.Assign_prop (target, p, Action.Prop (src, p'))
        when List.mem target redescs
             && String.equal src op_desc
             && String.equal p p' ->
        Some p
      | Action.Assign_prop _ | Action.Assign_desc _ -> None)
    rule.Irule.pre_opt
  |> List.sort_uniq String.compare

let detect (ruleset : Prairie.Ruleset.t) =
  let ops =
    List.sort_uniq String.compare
      (List.map Irule.operator ruleset.Prairie.Ruleset.irules)
  in
  List.filter_map
    (fun op ->
      let rules = Prairie.Ruleset.irules_for ruleset op in
      let nulls, algs = List.partition Irule.is_null_rule rules in
      match nulls with
      | [] -> None
      | null_rule :: _ ->
        let single_input =
          match null_rule.Irule.lhs with
          | Pattern.Pop (_, _, [ Pattern.Pvar _ ]) -> true
          | Pattern.Pop _ | Pattern.Pvar _ -> false
        in
        if not single_input then None
        else
          Some
            {
              operator = op;
              null_rule;
              algorithm_rules = algs;
              enforced_properties = enforced_properties_of null_rule;
            })
    ops

let is_enforcer_operator infos op =
  List.exists (fun i -> String.equal i.operator op) infos
