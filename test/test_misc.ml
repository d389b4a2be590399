(* Edge cases across the stack: search memoization under limits, executor
   corner cases, P2V warning paths, explain rendering. *)

module Search = Prairie_volcano.Search
module Plan = Prairie_volcano.Plan
module Memo = Prairie_volcano.Memo
module Explain = Prairie_volcano.Explain
module Rule = Prairie_volcano.Rule
module Iterator = Prairie_executor.Iterator
module E = Prairie_executor
module D = Prairie.Descriptor
module V = Prairie_value.Value
module O = Prairie_value.Order
module P = Prairie_value.Predicate
module A = Prairie_value.Attribute
module SF = Prairie_catalog.Stored_file
module Catalog = Prairie_catalog.Catalog
module Rel = Prairie_algebra.Relational
module W = Prairie_workload
module Opt = Prairie_optimizers.Optimizers

let contains_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let attr o n = A.make ~owner:o ~name:n
let eq a b = P.Cmp (P.Eq, P.T_attr a, P.T_attr b)

(* ------------------------------------------------------------------ *)
(* search internals                                                     *)
(* ------------------------------------------------------------------ *)

let catalog =
  Catalog.of_files
    [
      Rel.relation ~name:"R1" ~cardinality:800 [ ("a", 20); ("b", 10) ];
      Rel.relation ~name:"R2" ~cardinality:300 [ ("a", 20) ];
    ]

let volcano () =
  (Prairie_p2v.Translate.translate (Rel.ruleset catalog)).Prairie_p2v.Translate.volcano

let query () =
  Rel.join catalog ~pred:(eq (attr "R1" "a") (attr "R2" "a"))
    (Rel.ret catalog "R1") (Rel.ret catalog "R2")

let search_tests =
  [
    Alcotest.test_case "re-optimization leaves the memo unchanged" `Quick
      (fun () ->
        let ctx = Search.create (volcano ()) in
        ignore (Search.optimize ctx (query ()));
        let groups = Search.group_count ctx in
        let lexprs = Memo.lexpr_count (Search.memo ctx) in
        ignore (Search.optimize ctx (query ()));
        check_int "groups stable" groups (Search.group_count ctx);
        check_int "lexprs stable" lexprs (Memo.lexpr_count (Search.memo ctx)));
    Alcotest.test_case "failed search under a limit is re-run at a higher one"
      `Quick (fun () ->
        let ctx = Search.create (volcano ()) in
        let g = Memo.insert_expr (Search.memo ctx) (query ()) in
        let none = Search.optimize_group ctx g ~req:D.empty ~limit:0.0001 in
        check "fails under a tiny limit" true (none = None);
        let some = Search.optimize_group ctx g ~req:D.empty ~limit:infinity in
        check "succeeds when relaxed" true (some <> None));
    Alcotest.test_case "winner found under infinity is served under any limit"
      `Quick (fun () ->
        let ctx = Search.create (volcano ()) in
        let g = Memo.insert_expr (Search.memo ctx) (query ()) in
        let p = Option.get (Search.optimize_group ctx g ~req:D.empty ~limit:infinity) in
        let cost = Plan.cost p in
        check "above cost: same plan" true
          (Search.optimize_group ctx g ~req:D.empty ~limit:(cost +. 1.0) <> None);
        check "below cost: none" true
          (Search.optimize_group ctx g ~req:D.empty ~limit:(cost /. 2.0) = None));
    Alcotest.test_case "explore is reachable standalone" `Quick (fun () ->
        let ctx = Search.create (volcano ()) in
        let g = Memo.insert_expr (Search.memo ctx) (query ()) in
        Search.explore_group ctx g;
        (* commutativity must have added a second member to the join group *)
        check "members grew" true
          (List.length (Memo.lexprs (Search.memo ctx) g) >= 2));
    Alcotest.test_case "default satisfies semantics" `Quick (fun () ->
        let req =
          D.of_list [ ("tuple_order", V.Order (O.sorted_on (attr "R1" "a"))) ]
        in
        let actual_more =
          D.of_list
            [
              ("tuple_order", V.Order (O.sorted [ attr "R1" "a"; attr "R1" "b" ]));
              ("extra", V.Int 1);
            ]
        in
        check "prefix ok, extra props ignored" true
          (Rule.default_satisfies ~required:req ~actual:actual_more);
        check "missing order fails" false
          (Rule.default_satisfies ~required:req ~actual:D.empty);
        let other = D.of_list [ ("flag", V.Bool true) ] in
        check "non-order property uses equality" true
          (Rule.default_satisfies ~required:other
             ~actual:(D.of_list [ ("flag", V.Bool true); ("x", V.Int 2) ]));
        check "non-order property mismatch" false
          (Rule.default_satisfies ~required:other
             ~actual:(D.of_list [ ("flag", V.Bool false) ])));
  ]

(* ------------------------------------------------------------------ *)
(* executor corner cases                                                *)
(* ------------------------------------------------------------------ *)

let exec_tests =
  [
    Alcotest.test_case "scanning an empty table yields nothing" `Quick
      (fun () ->
        let file = SF.make ~name:"Z" ~cardinality:0 [ SF.column "Z" "x" ] in
        let table = { E.Table.file; schema = [| attr "Z" "x" |]; rows = [||] } in
        check_int "empty" 0
          (Array.length (Iterator.materialize (Iterator.scan table ~pred:P.True))));
    Alcotest.test_case "hash join applies residual conjuncts" `Quick (fun () ->
        let s1 = [| attr "L" "k"; attr "L" "v" |] in
        let s2 = [| attr "R" "k"; attr "R" "v" |] in
        let l =
          Iterator.of_array s1 [| [| V.Int 1; V.Int 5 |]; [| V.Int 1; V.Int 9 |] |]
        in
        let r =
          Iterator.of_array s2 [| [| V.Int 1; V.Int 7 |]; [| V.Int 1; V.Int 3 |] |]
        in
        let pred =
          P.And
            ( eq (attr "L" "k") (attr "R" "k"),
              P.Cmp (P.Lt, P.T_attr (attr "L" "v"), P.T_attr (attr "R" "v")) )
        in
        (* matches: (5,7) only — 9<7 and 9<3 and 5<3 fail *)
        check_int "one" 1
          (Array.length (Iterator.materialize (Iterator.hash_join l r ~pred))));
    Alcotest.test_case "merge join emits full equal-key groups" `Quick
      (fun () ->
        let s1 = [| attr "L" "k" |] and s2 = [| attr "R" "k" |] in
        let l = Iterator.of_array s1 [| [| V.Int 1 |]; [| V.Int 1 |]; [| V.Int 2 |] |] in
        let r = Iterator.of_array s2 [| [| V.Int 1 |]; [| V.Int 1 |]; [| V.Int 3 |] |] in
        let pred = eq (attr "L" "k") (attr "R" "k") in
        check_int "2x2 group" 4
          (Array.length (Iterator.materialize (Iterator.merge_join l r ~pred))));
    Alcotest.test_case "unnest passes scalar rows through" `Quick (fun () ->
        let s = [| attr "T" "xs" |] in
        let it =
          Iterator.unnest
            (Iterator.of_array s [| [| V.Int 3 |] |])
            ~attr:(attr "T" "xs")
        in
        check_int "passthrough" 1 (Array.length (Iterator.materialize it)));
    Alcotest.test_case "project of a missing attribute narrows the schema"
      `Quick (fun () ->
        let s = [| attr "T" "x" |] in
        let it =
          Iterator.project
            (Iterator.of_array s [| [| V.Int 3 |] |])
            ~attrs:[ attr "T" "x"; attr "T" "nope" ]
        in
        check_int "one column" 1 (Array.length it.Iterator.schema));
    Alcotest.test_case "nested loops handles an empty inner" `Quick (fun () ->
        let s1 = [| attr "L" "k" |] and s2 = [| attr "R" "k" |] in
        let l = Iterator.of_array s1 [| [| V.Int 1 |] |] in
        let r = Iterator.of_array s2 [||] in
        check_int "empty" 0
          (Array.length
             (Iterator.materialize
                (Iterator.nested_loops l r ~pred:(eq (attr "L" "k") (attr "R" "k"))))));
    Alcotest.test_case "compile rejects unknown algorithms and operators"
      `Quick (fun () ->
        let inst = W.Queries.instance W.Queries.Q1 ~joins:1 ~seed:1 in
        let db = E.Data_gen.database ~seed:1 inst.W.Queries.catalog in
        check "operator rejected" true
          (try
             ignore (E.Compile.execute db inst.W.Queries.expr);
             false
           with Invalid_argument _ -> true);
        let bogus =
          Prairie.Expr.algorithm "Quantum_join" D.empty [ Prairie.Expr.stored "C1" ]
        in
        check "unknown algorithm rejected" true
          (try
             ignore (E.Compile.execute db bogus);
             false
           with E.Compile.Unsupported _ -> true));
  ]

(* ------------------------------------------------------------------ *)
(* P2V warning paths                                                    *)
(* ------------------------------------------------------------------ *)

let merge_warning_tests =
  [
    Alcotest.test_case "interior enforcer deletion warns" `Quick (fun () ->
        (* build a rule whose RHS has SORT over a non-variable, non-root
           position: JOIN(?1,?2) ==> JOIN(SORT(RET'(?1)), ?2)-ish shape *)
        let open Prairie.Pattern in
        let t =
          Prairie.Trule.make ~name:"weird"
            ~lhs:(Pop ("JOIN", "D3", [ Pvar 1; Pvar 2 ]))
            ~rhs:
              (Tnode
                 ( "JOIN",
                   "D4",
                   [ Tnode ("SORT", "D5", [ Tnode ("SELECT", "D6", [ Tvar (1, None) ]) ]); Tvar (2, None) ]
                 ))
            ~post_test:
              [
                Prairie.Action.Assign_desc ("D4", Prairie.Action.Desc "D3");
                Prairie.Action.Assign_desc ("D6", Prairie.Action.Desc "D1");
                Prairie.Action.Assign_desc ("D5", Prairie.Action.Desc "D1");
              ]
            ()
        in
        let base = Rel.ruleset catalog in
        let rs = { base with Prairie.Ruleset.trules = t :: base.Prairie.Ruleset.trules } in
        let m = Prairie_p2v.Merge.merge rs in
        check "warned" true
          (List.exists
             (fun (w : Prairie.Diagnostic.t) ->
               String.equal w.Prairie.Diagnostic.code "P101"
               && contains_sub w.Prairie.Diagnostic.message "interior")
             m.Prairie_p2v.Merge.warnings));
  ]

(* ------------------------------------------------------------------ *)
(* explain                                                              *)
(* ------------------------------------------------------------------ *)

let explain_tests =
  [
    Alcotest.test_case "explain shows algorithms, parameters, costs" `Quick
      (fun () ->
        let inst = W.Queries.instance W.Queries.Q6 ~joins:1 ~seed:3 in
        let r = Opt.optimize (Opt.oodb_prairie inst.W.Queries.catalog) inst.W.Queries.expr in
        let plan = Option.get r.Opt.plan in
        let text = Explain.to_string plan in
        let contains needle = contains_sub text needle in
        check "cost shown" true (contains "cost=");
        check "rows shown" true (contains "rows=");
        check "a leaf table shown" true (contains "C1");
        let s = Explain.summary plan in
        check "summary mentions algorithms" true (String.length s > 10));
  ]

let budget_tests =
  [
    Alcotest.test_case "budgeted search still returns a valid plan" `Quick
      (fun () ->
        let inst = W.Queries.instance W.Queries.Q7 ~joins:2 ~seed:9 in
        let opt = Opt.oodb_prairie inst.W.Queries.catalog in
        let r = Opt.optimize ~group_budget:40 opt inst.W.Queries.expr in
        check "plan found" true (r.Opt.plan <> None);
        check "budget respected (within one exploration round)" true
          (Search.group_count r.Opt.search <= 80);
        check "budget reported" true (Search.budget_was_hit r.Opt.search));
    Alcotest.test_case "budgeted plans cost at least the optimum" `Quick
      (fun () ->
        let inst = W.Queries.instance W.Queries.Q5 ~joins:2 ~seed:9 in
        let opt = Opt.oodb_prairie inst.W.Queries.catalog in
        let full = Opt.optimize opt inst.W.Queries.expr in
        let capped = Opt.optimize ~group_budget:12 opt inst.W.Queries.expr in
        check "no better than optimum" true (capped.Opt.cost >= full.Opt.cost -. 1e-9);
        check "still executable" true
          (match capped.Opt.plan with
          | Some p -> Prairie.Expr.is_access_plan (Plan.to_expr p)
          | None -> false));
    Alcotest.test_case "a generous budget changes nothing" `Quick (fun () ->
        let inst = W.Queries.instance W.Queries.Q5 ~joins:2 ~seed:9 in
        let opt = Opt.oodb_prairie inst.W.Queries.catalog in
        let full = Opt.optimize opt inst.W.Queries.expr in
        let capped = Opt.optimize ~group_budget:1_000_000 opt inst.W.Queries.expr in
        Alcotest.(check (float 1e-9)) "same cost" full.Opt.cost capped.Opt.cost;
        check "not hit" false (Search.budget_was_hit capped.Opt.search));
  ]

(* relational plans (Merge_join / Nested_loops / Merge_sort / Null) also
   execute; the OODB end-to-end tests only cover the hash/pointer family *)
let relational_exec_tests =
  [
    Alcotest.test_case "relational plans execute and agree" `Quick (fun () ->
        let cat =
          Catalog.of_files
            [
              Rel.relation ~name:"R1" ~cardinality:300 ~indexes:[ "a" ] [ ("a", 20); ("b", 7) ];
              Rel.relation ~name:"R2" ~cardinality:120 [ ("a", 20) ];
            ]
        in
        let q =
          Rel.join cat ~pred:(eq (attr "R1" "a") (attr "R2" "a"))
            (Rel.ret cat "R1") (Rel.ret cat "R2")
        in
        let db = E.Data_gen.database ~seed:8 cat in
        let opt = Prairie_optimizers.Optimizers.relational cat in
        let r = Opt.optimize opt q in
        let plan = Option.get r.Prairie_optimizers.Optimizers.plan in
        let schema, rows = E.Compile.execute_plan db plan in
        check "rows" true (rows <> []);
        (* reference: nested-loop count over raw tables *)
        let t1 = E.Table.find db "R1" and t2 = E.Table.find db "R2" in
        let expected = ref 0 in
        Array.iter
          (fun a ->
            Array.iter
              (fun b ->
                let lookup x =
                  match E.Tuple.lookup_term t1.E.Table.schema a x with
                  | Some v -> Some v
                  | None -> E.Tuple.lookup_term t2.E.Table.schema b x
                in
                if P.eval ~lookup (eq (attr "R1" "a") (attr "R2" "a")) then incr expected)
              t2.E.Table.rows)
          t1.E.Table.rows;
        check_int "count" !expected (List.length rows);
        (* an ORDER BY plan executes sorted *)
        let sorted_q = Rel.sort cat ~order:(Prairie_value.Order.sorted_on (attr "R1" "b")) q in
        let r2 = Opt.optimize opt sorted_q in
        let plan2 = Option.get r2.Prairie_optimizers.Optimizers.plan in
        let schema2, rows2 = E.Compile.execute_plan db plan2 in
        let rec is_sorted = function
          | x :: (y :: _ as rest) ->
            E.Tuple.compare_by schema2 [ attr "R1" "b" ] x y <= 0 && is_sorted rest
          | _ -> true
        in
        check "sorted output" true (is_sorted rows2);
        check_int "same cardinality" (List.length rows) (List.length rows2);
        ignore schema);
  ]

let suites =
  [
    ("misc.search", search_tests);
    ("misc.relational_exec", relational_exec_tests);
    ("misc.budget", budget_tests);
    ("misc.executor", exec_tests);
    ("misc.p2v_warnings", merge_warning_tests);
    ("misc.explain", explain_tests);
  ]
