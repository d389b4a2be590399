(* The aggregation add-on: rule-set combination, enforcer-driven algorithm
   choice, and execution. *)

module Agg = Prairie_algebra.Aggregates
module Rel = Prairie_algebra.Relational
module P2v = Prairie_p2v
module Search = Prairie_volcano.Search
module Plan = Prairie_volcano.Plan
module Naive = Prairie.Naive
module Catalog = Prairie_catalog.Catalog
module D = Prairie.Descriptor
module V = Prairie_value.Value
module O = Prairie_value.Order
module A = Prairie_value.Attribute
module P = Prairie_value.Predicate
module E = Prairie_executor
module Tuple = Prairie_executor.Tuple

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let attr o n = A.make ~owner:o ~name:n

let catalog =
  Catalog.of_files
    [
      Rel.relation ~name:"orders" ~cardinality:2_000 ~indexes:[ "cust" ]
        [ ("cust", 50); ("total", 100) ];
    ]

let ruleset = Agg.extended_relational catalog

let optimize ?required expr =
  let tr = P2v.Translate.translate ruleset in
  let ctx = Search.create tr.P2v.Translate.volcano in
  let expr, req0 = P2v.Translate.prepare_query tr expr in
  let required =
    match required with
    | None -> req0
    | Some r -> D.merge ~base:req0 ~overrides:r
  in
  Search.optimize ~required ctx expr

(* AGG over a selective indexed retrieval: the index delivers the group
   order, so Sort_agg is free; over a full scan, Hash_agg wins. *)
let agg_over ?pred () =
  Agg.agg catalog ~by:[ attr "orders" "cust" ] (Rel.ret ?pred catalog "orders")

let rules_tests =
  [
    Alcotest.test_case "combined rule set validates" `Quick (fun () ->
        Alcotest.(check (list string)) "valid" [] (Support.rule_text_errors ruleset));
    Alcotest.test_case "fragment adds exactly two I-rules" `Quick (fun () ->
        check_int "irules"
          (Prairie.Ruleset.irule_count (Rel.ruleset catalog) + 2)
          (Prairie.Ruleset.irule_count ruleset));
    Alcotest.test_case "AGG inherits the SORT enforcer through combination"
      `Quick (fun () ->
        let m = P2v.Merge.merge ruleset in
        check_int "still one enforcer" 1 (P2v.Merge.enforcer_count m));
  ]

let planning_tests =
  [
    Alcotest.test_case "unordered input: Hash_agg wins" `Quick (fun () ->
        match optimize (agg_over ()) with
        | Some plan ->
          check "hash agg" true (List.mem "Hash_agg" (Plan.algorithms plan))
        | None -> Alcotest.fail "no plan");
    Alcotest.test_case "index-delivered order: Sort_agg wins" `Quick (fun () ->
        (* selection on the indexed group attribute: Index_scan delivers
           sorted-by-cust output, making Sort_agg free *)
        let pred = P.Cmp (P.Eq, P.T_attr (attr "orders" "cust"), P.T_int 7) in
        match optimize (agg_over ~pred ()) with
        | Some plan ->
          check "sort agg" true (List.mem "Sort_agg" (Plan.algorithms plan));
          check "no explicit sort" false
            (List.mem "Merge_sort" (Plan.algorithms plan))
        | None -> Alcotest.fail "no plan");
    Alcotest.test_case "required group order: Sort_agg delivers it" `Quick
      (fun () ->
        let required =
          D.of_list
            [ ("tuple_order", V.Order (O.sorted_on (attr "orders" "cust"))) ]
        in
        match optimize ~required (agg_over ()) with
        | Some plan ->
          (* sorting the ~50 groups after a Hash_agg beats sorting all 2000
             input rows for a Sort_agg, so either implementation may win —
             what matters is that the order is delivered *)
          check "order achieved" true
            (O.satisfies
               ~required:(O.sorted_on (attr "orders" "cust"))
               ~actual:(D.get_order (Plan.descriptor plan) "tuple_order"))
        | None -> Alcotest.fail "no plan");
    Alcotest.test_case "volcano agrees with the exhaustive oracle" `Quick
      (fun () ->
        List.iter
          (fun required ->
            let naive = Naive.best_plan ruleset ~required (agg_over ()) in
            let vol = optimize ~required (agg_over ()) in
            match (naive, vol) with
            | Some n, Some p ->
              Alcotest.(check (float 1e-6)) "cost" n.Naive.cost (Plan.cost p)
            | _ -> Alcotest.fail "plan missing on one side")
          [
            D.empty;
            D.of_list
              [ ("tuple_order", V.Order (O.sorted_on (attr "orders" "cust"))) ];
          ]);
  ]

let execution_tests =
  [
    Alcotest.test_case "hash and stream aggregation agree with a reference"
      `Quick (fun () ->
        let db = E.Data_gen.database ~seed:3 catalog in
        let q = agg_over () in
        (* force both implementations via the two engines' plans and a
           hand-built reference count *)
        let plan = Option.get (optimize q) in
        let schema, rows = E.Compile.execute_plan db plan in
        let table = E.Table.find db "orders" in
        let reference = Hashtbl.create 64 in
        Array.iter
          (fun row ->
            let v = Option.get (Tuple.get table.E.Table.schema row (attr "orders" "cust")) in
            Hashtbl.replace reference v
              (1 + Option.value ~default:0 (Hashtbl.find_opt reference v)))
          table.E.Table.rows;
        check_int "group count" (Hashtbl.length reference) (List.length rows);
        check "every count right" true
          (List.for_all
             (fun row ->
               let g = Option.get (Tuple.get schema row (attr "orders" "cust")) in
               let n = Option.get (Tuple.get schema row Agg.count_attr) in
               V.equal n (V.Int (Hashtbl.find reference g)))
             rows));
    Alcotest.test_case "Sort_agg output is ordered by the group attributes"
      `Quick (fun () ->
        let required =
          D.of_list
            [ ("tuple_order", V.Order (O.sorted_on (attr "orders" "cust"))) ]
        in
        let db = E.Data_gen.database ~seed:3 catalog in
        let plan = Option.get (optimize ~required (agg_over ())) in
        let schema, rows = E.Compile.execute_plan db plan in
        let rec sorted = function
          | a :: (b :: _ as rest) ->
            Tuple.compare_by schema [ attr "orders" "cust" ] a b <= 0 && sorted rest
          | _ -> true
        in
        check "sorted" true (sorted rows));
    Alcotest.test_case "both aggregation iterators agree directly" `Quick
      (fun () ->
        let db = E.Data_gen.database ~seed:9 catalog in
        let table = E.Table.find db "orders" in
        let by = [ attr "orders" "cust" ] in
        let base () = E.Iterator.scan table ~pred:P.True in
        let hash = E.Iterator.hash_aggregate (base ()) ~by in
        let stream =
          E.Iterator.stream_aggregate (E.Iterator.sort (base ()) ~order:by) ~by
        in
        let canon it =
          List.sort compare
            (List.map (Tuple.canonical it.E.Iterator.schema)
               (Array.to_list (E.Iterator.materialize it)))
        in
        check "same groups" true (canon hash = canon stream));
  ]

let suites =
  [
    ("aggregates.rules", rules_tests);
    ("aggregates.planning", planning_tests);
    ("aggregates.execution", execution_tests);
  ]
