(* Relational optimization scenarios: interesting orders and enforcers.

     dune exec examples/relational_join.exe

   Demonstrates the explicit-enforcer story of the paper: an ORDER BY is a
   SORT operator in the Prairie query; P2V strips it into a required
   physical property, and the Volcano engine decides between sorting
   (Merge_sort, the enforcer), an order-preserving join, or an index scan
   that delivers the order for free. *)

module Catalog = Prairie_catalog.Catalog
module Rel = Prairie_algebra.Relational
module Opt = Prairie_optimizers.Optimizers
module A = Prairie_value.Attribute
module P = Prairie_value.Predicate
module O = Prairie_value.Order

let attr owner name = A.make ~owner ~name
let ( === ) a b = P.Cmp (P.Eq, P.T_attr a, P.T_attr b)

let catalog =
  Catalog.of_files
    [
      Rel.relation ~name:"orders" ~cardinality:50_000 ~indexes:[ "cust" ]
        [ ("cust", 5_000); ("total", 1_000) ];
      Rel.relation ~name:"cust" ~cardinality:5_000 [ ("cust", 5_000); ("region", 10) ];
    ]

let query ?order ?(sel = P.True) () =
  let join =
    Rel.join catalog
      ~pred:(attr "orders" "cust" === attr "cust" "cust")
      (Rel.ret catalog ~pred:sel "orders")
      (Rel.ret catalog "cust")
  in
  match order with
  | None -> join
  | Some o -> Rel.sort catalog ~order:o join

let show title q =
  let opt = Opt.relational catalog in
  let r = Opt.optimize opt q in
  match r.Opt.plan with
  | None -> Format.printf "%s: no plan@." title
  | Some plan ->
    Format.printf "@.%s@.  query: %a@.  plan:  %a@.  cost:  %.2f@." title
      Prairie.Expr.pp q Prairie_volcano.Plan.pp plan r.Opt.cost

let () =
  show "1. plain join (hash-free relational set: nested loops vs merge join)"
    (query ());
  show "2. ORDER BY orders.cust (the join order matches: merge join gives it away)"
    (query ~order:(O.sorted_on (attr "orders" "cust")) ());
  show "3. ORDER BY orders.total (no operator helps: the Merge_sort enforcer runs)"
    (query ~order:(O.sorted_on (attr "orders" "total")) ());
  show "4. selective predicate on the indexed attribute: Index_scan wins"
    (query ~sel:(P.Cmp (P.Eq, P.T_attr (attr "orders" "cust"), P.T_int 42)) ());
  (* the naive oracle agrees on the small cases *)
  let ruleset = Opt.relational_ruleset catalog in
  let q = query ~order:(O.sorted_on (attr "orders" "cust")) () in
  let prepared, required = (Opt.relational catalog).Opt.prepare q in
  (match Prairie.Naive.best_plan ruleset ~required prepared with
  | Some oracle ->
    let volcano = Opt.optimize (Opt.relational catalog) q in
    let agree =
      Float.abs (oracle.Prairie.Naive.cost -. volcano.Opt.cost) < 1e-6
    in
    Format.printf
      "@.oracle check (scenario 2): exhaustive %.2f vs Volcano %.2f -> %s@."
      oracle.Prairie.Naive.cost volcano.Opt.cost
      (if agree then "identical" else "MISMATCH");
    if not agree then exit 1
  | None -> print_endline "oracle found no plan")
