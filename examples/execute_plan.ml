(* Optimize AND execute: the full path from query to rows.

     dune exec examples/execute_plan.exe

   Generates synthetic data for a workload catalog, optimizes a selection
   query, compiles the winning access plan to Volcano-style iterators, runs
   it, and cross-checks the result against a deliberately different plan. *)

module W = Prairie_workload
module Opt = Prairie_optimizers.Optimizers
module E = Prairie_executor
module Plan = Prairie_volcano.Plan

let () =
  (* a Q6-style query, but with a single selective conjunct so the result
     is small-but-non-empty: SELECT[bC1 = 1](C1 join C2) with an index *)
  let base = W.Queries.instance W.Queries.Q6 ~joins:2 ~seed:7 in
  let catalog = base.W.Queries.catalog in
  let query =
    Prairie_algebra.Init.select catalog
      ~pred:
        (Prairie_value.Predicate.Cmp
           ( Prairie_value.Predicate.Eq,
             Prairie_value.Predicate.T_attr (W.Catalogs.b_attr 1),
             Prairie_value.Predicate.T_int 1 ))
      (W.Expressions.e1 catalog ~joins:2)
  in
  let inst = { base with W.Queries.expr = query } in
  Format.printf "query: %a@.@." Prairie.Expr.pp inst.W.Queries.expr;

  (* synthetic data, deterministic per seed *)
  let db = E.Data_gen.database ~seed:2024 catalog in
  List.iter
    (fun f ->
      Format.printf "  table %-4s: %d rows@." f.Prairie_catalog.Stored_file.name
        f.Prairie_catalog.Stored_file.cardinality)
    (Prairie_catalog.Catalog.files catalog);

  (* optimize with the P2V-generated optimizer *)
  let r = Opt.optimize (Opt.oodb_prairie catalog) inst.W.Queries.expr in
  let plan = Option.get r.Opt.plan in
  Format.printf "@.optimized plan (cost %.2f): %a@." r.Opt.cost Plan.pp plan;

  (* compile to iterators and run *)
  let schema, rows = E.Compile.execute_plan db plan in
  Format.printf "@.executed: %d result tuples, %d columns@." (List.length rows)
    (Array.length schema);
  List.iteri
    (fun i row ->
      if i < 5 then Format.printf "  %a@." (E.Tuple.pp schema) row)
    rows;
  if List.length rows > 5 then Format.printf "  ... (%d more)@." (List.length rows - 5);

  (* cross-check: a different optimizer configuration may pick a different
     plan; the result multiset must be identical *)
  let alt = Opt.optimize (Opt.oodb_volcano catalog) inst.W.Queries.expr in
  let alt_plan = Option.get alt.Opt.plan in
  let c1 = E.Compile.canonical_result (schema, rows) in
  let c2 = E.Compile.canonical_result (E.Compile.execute_plan db alt_plan) in
  Format.printf "@.alternative plan: %a@." Plan.pp alt_plan;
  Format.printf "results identical across plans: %b@." (c1 = c2);
  if c1 <> c2 then exit 1;

  (* and against the slowest-but-obviously-correct plan: force nested
     evaluation by executing the unoptimized semantics via the oracle's
     cheapest plan on the naive side *)
  let ruleset = Opt.oodb_ruleset catalog in
  match
    Prairie.Naive.best_plan ruleset ~required:Prairie.Descriptor.empty
      inst.W.Queries.expr
  with
  | Some oracle ->
    let c3 =
      E.Compile.canonical_result (E.Compile.execute db oracle.Prairie.Naive.plan)
    in
    Format.printf "oracle plan agrees too: %b@." (c1 = c3);
    if c1 <> c3 then exit 1
  | None -> print_endline "oracle found no plan"
