(* The naive exhaustive optimizer (the oracle). *)

module Naive = Prairie.Naive
module Expr = Prairie.Expr
module D = Prairie.Descriptor
module V = Prairie_value.Value
module O = Prairie_value.Order
module P = Prairie_value.Predicate
module A = Prairie_value.Attribute
module Rel = Prairie_algebra.Relational
module Catalog = Prairie_catalog.Catalog

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let attr o n = A.make ~owner:o ~name:n
let eq a b = P.Cmp (P.Eq, P.T_attr a, P.T_attr b)

let catalog =
  Catalog.of_files
    [
      Rel.relation ~name:"R1" ~cardinality:1000 ~indexes:[ "a" ] [ ("a", 100); ("b", 50) ];
      Rel.relation ~name:"R2" ~cardinality:200 [ ("a", 100); ("c", 20) ];
      Rel.relation ~name:"R3" ~cardinality:50 [ ("c", 20) ];
    ]

let ruleset = Rel.ruleset catalog
let r n = Rel.ret catalog n

let two_way =
  Rel.join catalog ~pred:(eq (attr "R1" "a") (attr "R2" "a")) (r "R1") (r "R2")

let three_way =
  Rel.join catalog ~pred:(eq (attr "R2" "c") (attr "R3" "c")) two_way (r "R3")

let logical_tests =
  [
    Alcotest.test_case "closure contains the original" `Quick (fun () ->
        let forms = Naive.logical_forms ruleset two_way in
        check "self" true (List.exists (Expr.equal two_way) forms));
    Alcotest.test_case "closure contains the commuted form" `Quick (fun () ->
        let forms = Naive.logical_forms ruleset two_way in
        check "commuted" true
          (List.exists
             (fun e -> String.equal (Expr.to_string e) "JOIN(RET(R2), RET(R1))")
             forms));
    Alcotest.test_case "three-way closure contains all join orders" `Quick
      (fun () ->
        let forms = Naive.logical_forms ruleset three_way in
        let shapes =
          List.filter
            (fun e -> String.equal (Expr.label e) "JOIN")
            forms
        in
        (* at least original, commuted, and the right-associated variant *)
        check "several" true (List.length shapes >= 4);
        check "reassociated present" true
          (List.exists
             (fun e ->
               String.equal (Expr.to_string e) "JOIN(RET(R1), JOIN(RET(R2), RET(R3)))")
             forms));
    Alcotest.test_case "closure is deduplicated" `Quick (fun () ->
        let forms = Naive.logical_forms ruleset two_way in
        let rec has_dup = function
          | [] -> false
          | x :: rest -> List.exists (Expr.equal x) rest || has_dup rest
        in
        check "no dups" false (has_dup forms));
    Alcotest.test_case "max_forms caps enumeration" `Quick (fun () ->
        check_int "capped" 2 (List.length (Naive.logical_forms ~max_forms:2 ruleset three_way)));
  ]

let plan_tests =
  [
    Alcotest.test_case "all plans are access plans" `Quick (fun () ->
        let plans = Naive.plans ruleset ~required:D.empty two_way in
        check "non-empty" true (plans <> []);
        check "all plans" true (List.for_all Expr.is_access_plan plans));
    Alcotest.test_case "every plan retains both relations" `Quick (fun () ->
        let plans = Naive.plans ruleset ~required:D.empty two_way in
        check "files" true
          (List.for_all
             (fun p ->
               List.sort compare (Expr.stored_files p) = [ "R1"; "R2" ])
             plans));
    Alcotest.test_case "best plan has minimal cost" `Quick (fun () ->
        let plans = Naive.plans ruleset ~required:D.empty two_way in
        let best = Option.get (Naive.best_plan ruleset ~required:D.empty two_way) in
        check "minimal" true
          (List.for_all (fun p -> Expr.cost p >= best.Naive.cost -. 1e-9) plans));
    Alcotest.test_case "required order is reflected in every plan" `Quick
      (fun () ->
        let required =
          D.of_list [ ("tuple_order", V.Order (O.sorted_on (attr "R1" "b"))) ]
        in
        let plans = Naive.plans ruleset ~required two_way in
        check "non-empty" true (plans <> []);
        (* every plan's root must be order-producing or order-preserving:
           cheapest check is that costs exceed the unordered optimum *)
        let unordered = Option.get (Naive.best_plan ruleset ~required:D.empty two_way) in
        let ordered = Option.get (Naive.best_plan ruleset ~required two_way) in
        check "order costs more" true (ordered.Naive.cost > unordered.Naive.cost));
    Alcotest.test_case "ordered query can use the index for free order" `Quick
      (fun () ->
        (* asking for order on the indexed attribute R1.a with a selection on
           it makes Index_scan deliver the order *)
        let pred = P.Cmp (P.Eq, P.T_attr (attr "R1" "a"), P.T_int 3) in
        let q = Rel.ret ~pred catalog "R1" in
        let required = D.of_list [ ("tuple_order", V.Order (O.sorted_on (attr "R1" "a"))) ] in
        let best = Option.get (Naive.best_plan ruleset ~required q) in
        check "index scan used" true
          (String.equal (Expr.label best.Naive.plan) "Index_scan"));
    Alcotest.test_case "plan_count matches plans length" `Quick (fun () ->
        check_int "consistent"
          (List.length (Naive.plans ruleset ~required:D.empty two_way))
          (Naive.plan_count ruleset ~required:D.empty two_way));
  ]

(* Every access plan, enumerated by the test without the oracle's memo or
   its one-plan-per-descriptor cut: each logical form, every applicable
   I-rule, every combination of input plans.  Re-entrant sub-problems
   yield nothing, as in the oracle. *)
let exhaustive_costs ruleset ~required expr =
  let helpers = ruleset.Prairie.Ruleset.helpers in
  let rec cartesian = function
    | [] -> [ [] ]
    | choices :: rest ->
      let tails = cartesian rest in
      List.concat_map (fun c -> List.map (fun t -> c :: t) tails) choices
  in
  let rec all_plans in_progress expr =
    if List.exists (Expr.equal expr) in_progress then []
    else
      List.concat_map
        (implement (expr :: in_progress))
        (Naive.logical_forms ruleset expr)
  and implement in_progress = function
    | (Expr.Stored _ | Expr.Node (Expr.Algorithm, _, _, _)) as e -> [ e ]
    | Expr.Node (Expr.Operator, name, _, _) as e ->
      List.concat_map
        (fun rule ->
          match Prairie.Eval.begin_irule helpers rule e with
          | None -> []
          | Some app -> (
            match Prairie.Eval.input_requirements app with
            | None -> []
            | Some reqs ->
              let per_input =
                List.map
                  (fun (i, sub) ->
                    List.map (fun p -> (i, p)) (all_plans in_progress sub))
                  reqs
              in
              List.map
                (fun optimized_inputs ->
                  Prairie.Eval.finish_irule helpers app ~optimized_inputs)
                (cartesian per_input)))
        (Prairie.Ruleset.irules_for ruleset name)
  in
  match
    Prairie.Eval.pose expr
      (D.merge ~base:(Expr.descriptor expr) ~overrides:required)
  with
  | None -> []
  | Some expr -> List.map Expr.cost (all_plans [] expr)

let exhaustive_tests =
  let ordered a =
    D.of_list [ ("tuple_order", V.Order (O.sorted_on a)) ]
  in
  let selected =
    Rel.ret ~pred:(P.Cmp (P.Eq, P.T_attr (attr "R1" "a"), P.T_int 3)) catalog "R1"
  in
  let cases =
    [
      ("two-way join", D.empty, two_way);
      ("two-way join, ordered on R1.b", ordered (attr "R1" "b"), two_way);
      ("three-way join", D.empty, three_way);
      ("indexed selection, ordered on R1.a", ordered (attr "R1" "a"), selected);
    ]
  in
  List.map
    (fun (name, required, q) ->
      Alcotest.test_case ("best plan is the exhaustive minimum: " ^ name) `Quick
        (fun () ->
          let costs = exhaustive_costs ruleset ~required q in
          check "some plan" true (costs <> []);
          let minimum = List.fold_left Float.min infinity costs in
          match Naive.best_plan ruleset ~required q with
          | None -> Alcotest.fail "the oracle found no plan"
          | Some best ->
            Alcotest.(check (float 1e-9)) "cost" minimum best.Naive.cost;
            check "fewer or as many plans kept" true
              (Naive.plan_count ruleset ~required q <= List.length costs)))
    cases

(* A stored file is no stream: no algorithm changes what it delivers, and
   Volcano never puts an enforcer on a file group.  The oracle must accept
   a bare file as a plan only when its own descriptor meets the
   requirement.  The witness is verify's shrunk P220 on
   rules/aggregates.prairie: SORT directly over a file, on the catalog
   C1(1) C2(1) DC1(1) DC2(1). *)
let stored_leaf_tests =
  let module W = Prairie_workload in
  let catalog =
    W.Catalogs.make
      {
        W.Catalogs.classes = 2;
        indexed = false;
        card_range = (1, 1);
        detail_card_range = (1, 1);
        seed = 0;
      }
  in
  let ruleset = Prairie_algebra.Aggregates.fragment catalog in
  let tr = Prairie_p2v.Translate.translate ruleset in
  let file = Prairie_algebra.Init.file catalog "C1" in
  let search required q =
    let ctx = Prairie_volcano.Search.create tr.Prairie_p2v.Translate.volcano in
    Prairie_volcano.Search.optimize ~required ctx q
  in
  [
    Alcotest.test_case "SORT over a bare file: a file cannot claim an order"
      `Quick (fun () ->
        let sorted =
          Prairie_algebra.Init.sort catalog
            ~order:(O.sorted_on (W.Catalogs.b_attr 1))
            file
        in
        let q, required = Prairie_p2v.Translate.prepare_query tr sorted in
        check "search finds no plan" true (Option.is_none (search required q));
        check "the oracle finds none either" true
          (Option.is_none (Naive.best_plan ruleset ~required q));
        (* unordered, the file is its own plan on both sides *)
        check "search plans the bare file" true
          (Option.is_some (search D.empty file));
        match Naive.best_plan ruleset ~required:D.empty file with
        | Some best -> check "the file itself" true (Expr.equal best.Naive.plan file)
        | None -> Alcotest.fail "no oracle plan for a bare file");
  ]

let suites =
  [
    ("naive.logical", logical_tests);
    ("naive.plans", plan_tests);
    ("naive.exhaustive", exhaustive_tests);
    ("naive.stored", stored_leaf_tests);
  ]
