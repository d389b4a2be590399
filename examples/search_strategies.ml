(* Top-down Volcano vs bottom-up System R over the same rules.

     dune exec examples/search_strategies.exe

   Paper §2.2: "Prairie admits two rather different means of optimization:
   top-down and bottom-up. ... Given an appropriate search engine, Prairie
   can potentially also be used with a bottom-up optimization strategy."
   Both engines exist here, run over the same memo and the same
   P2V-generated rules, and must find plans of equal cost — the difference
   is purely strategic: demand-driven, branch-and-bound top-down search vs
   exhaustive dynamic programming with interesting orders. *)

module W = Prairie_workload
module Opt = Prairie_optimizers.Optimizers
module Search = Prairie_volcano.Search
module Stats = Prairie_volcano.Stats
module Bottom_up = Prairie_volcano.Bottom_up
module Plan = Prairie_volcano.Plan
module Explain = Prairie_volcano.Explain

let () =
  let inst = W.Queries.instance W.Queries.Q5 ~joins:2 ~seed:11 in
  let opt = Opt.oodb_prairie inst.W.Queries.catalog in
  Format.printf "query: %a@.@." Prairie.Expr.pp inst.W.Queries.expr;

  (* top-down *)
  let td = Opt.optimize opt inst.W.Queries.expr in
  let td_stats = Search.stats td.Opt.search in
  Format.printf "=== top-down (Volcano FindBestPlan) ===@.";
  Format.printf "cost %.3f over %d groups; %d optimize calls, %d plans costed, %d pruned@."
    td.Opt.cost
    (Search.group_count td.Opt.search)
    td_stats.Stats.optimize_calls td_stats.Stats.impl_firings
    td_stats.Stats.pruned;

  (* bottom-up *)
  let expr, required = opt.Opt.prepare inst.W.Queries.expr in
  let bu = Bottom_up.optimize ~required opt.Opt.volcano expr in
  Format.printf "@.=== bottom-up (System R dynamic programming) ===@.";
  (match bu.Bottom_up.plan with
  | Some p ->
    Format.printf
      "cost %.3f over %d groups; %d (group, requirement) DP entries, %d plans \
       costed@."
      (Plan.cost p) bu.Bottom_up.groups_explored
      bu.Bottom_up.requirements_considered bu.Bottom_up.plans_costed
  | None -> print_endline "no plan");

  (match (td.Opt.plan, bu.Bottom_up.plan) with
  | Some p1, Some p2 ->
    let agree = Float.abs (Plan.cost p1 -. Plan.cost p2) < 1e-9 in
    Format.printf "@.strategies agree on cost: %b@.@." agree;
    if not agree then exit 1;
    Format.printf "the plan:@.%a" Explain.pp p2
  | _ -> ());

  (* the bottom-up engine shines when an order is required: interesting
     orders are Selinger's original trick *)
  let ordered =
    Prairie_algebra.Init.sort inst.W.Queries.catalog
      ~order:(Prairie_value.Order.sorted_on (W.Catalogs.oid 1))
      inst.W.Queries.expr
  in
  let expr, required = opt.Opt.prepare ordered in
  let td = Opt.optimize opt ordered in
  let bu = Bottom_up.optimize ~required opt.Opt.volcano expr in
  match bu.Bottom_up.plan with
  | Some p ->
    Format.printf
      "@.with ORDER BY C1.oid: top-down %.3f, bottom-up %.3f (%d DP entries — \
       the extra ones are Selinger's interesting orders)@."
      td.Opt.cost (Plan.cost p) bu.Bottom_up.requirements_considered
  | None -> print_endline "no ordered plan"

(* sanity: the ordered plan really delivers the order (the sort of a
   handful of tuples is nearly free, hence the near-identical cost) *)
let () =
  let inst = W.Queries.instance W.Queries.Q5 ~joins:2 ~seed:11 in
  let opt = Opt.oodb_prairie inst.W.Queries.catalog in
  let ordered =
    Prairie_algebra.Init.sort inst.W.Queries.catalog
      ~order:(Prairie_value.Order.sorted_on (W.Catalogs.oid 1))
      inst.W.Queries.expr
  in
  let td = Opt.optimize opt ordered in
  match td.Opt.plan with
  | Some p ->
    Format.printf "ordered plan delivers %s at cost %.6f: %a@."
      (Prairie_value.Order.to_string
         (Prairie.Descriptor.get_order (Plan.descriptor p) "tuple_order"))
      (Plan.cost p) Plan.pp p
  | None -> print_endline "no plan"
