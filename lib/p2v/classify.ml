module Irule = Prairie.Irule
module Action = Prairie.Action
module Property = Prairie.Property

type classification = {
  cost : string list;
  physical : string list;
  argument : string list;
}

(* Physical properties: assigned in an I-rule pre-opt section to the
   descriptor of a re-descriptored input stream. *)
let physical_of_irule (rule : Irule.t) =
  let redescs = List.map snd (Irule.redescriptored_inputs rule) in
  List.filter_map
    (fun stmt ->
      match stmt with
      | Action.Assign_prop (target, p, _) when List.mem target redescs -> Some p
      | Action.Assign_prop _ | Action.Assign_desc _ -> None)
    rule.Irule.pre_opt

let classify_irules ~schema irules =
  let cost = Property.cost_properties schema in
  let physical =
    List.concat_map physical_of_irule irules
    |> List.filter (fun p -> not (List.mem p cost))
    |> List.sort_uniq String.compare
  in
  let argument =
    List.filter_map
      (fun (p : Property.t) ->
        if List.mem p.Property.name cost || List.mem p.Property.name physical
        then None
        else Some p.Property.name)
      schema
  in
  { cost; physical; argument }

let classify (ruleset : Prairie.Ruleset.t) =
  classify_irules ~schema:ruleset.Prairie.Ruleset.properties
    ruleset.Prairie.Ruleset.irules
