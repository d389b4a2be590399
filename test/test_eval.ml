(* Action evaluation and rule application — including the paper's worked
   examples (Figs. 3, 5, 6, 7b) run concretely. *)

module Action = Prairie.Action
module Eval = Prairie.Eval
module Pattern = Prairie.Pattern
module Binding = Prairie.Pattern.Binding
module Expr = Prairie.Expr
module D = Prairie.Descriptor
module V = Prairie_value.Value
module O = Prairie_value.Order
module P = Prairie_value.Predicate
module A = Prairie_value.Attribute
module H = Prairie.Helper_env

let check = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-9))
let attr o n = A.make ~owner:o ~name:n

let binding descs =
  List.fold_left (fun b (d, v) -> Binding.bind_desc b d v) Binding.empty descs

let expr_tests =
  [
    Alcotest.test_case "arithmetic over properties" `Quick (fun () ->
        let b = binding [ ("D1", D.of_list [ ("n", V.Int 10); ("c", V.Float 2.0) ]) ] in
        let e =
          Action.(Binop (Add, Prop ("D1", "c"), Binop (Mul, Prop ("D1", "n"), Const (V.Float 0.5))))
        in
        checkf "2 + 10 * 0.5" 7.0 (V.to_float (Eval.eval_expr H.builtins b e)));
    Alcotest.test_case "builtin helpers" `Quick (fun () ->
        let b = Binding.empty in
        checkf "log2 8" 3.0
          (V.to_float (Eval.eval_expr H.builtins b (Action.call "log2" [ Action.int 8 ])));
        check "is_dont_care of unset order" true
          (V.to_bool
             (Eval.eval_expr H.builtins
                (binding [ ("D", D.empty) ])
                (Action.call "is_dont_care" [ Action.prop "D" "tuple_order" ]))));
    Alcotest.test_case "unknown helper raises" `Quick (fun () ->
        check "raises" true
          (try
             ignore (Eval.eval_expr H.builtins Binding.empty (Action.call "nope" []));
             false
           with H.Unknown_helper "nope" -> true));
    Alcotest.test_case "short-circuit and/or" `Quick (fun () ->
        (* the right operand would raise if evaluated *)
        let boom = Action.call "nope" [] in
        let e = Action.(Binop (And, Const (V.Bool false), boom)) in
        check "and shortcuts" false (V.to_bool (Eval.eval_expr H.builtins Binding.empty e));
        let e = Action.(Binop (Or, Const (V.Bool true), boom)) in
        check "or shortcuts" true (V.to_bool (Eval.eval_expr H.builtins Binding.empty e)));
    Alcotest.test_case "whole-descriptor read outside copy is an error" `Quick
      (fun () ->
        check "raises" true
          (try
             ignore
               (Eval.eval_expr H.builtins Binding.empty
                  Action.(Binop (Add, Desc "D1", Const (V.Int 1))));
             false
           with Eval.Rule_error _ -> true));
    Alcotest.test_case "non-boolean test rejected" `Quick (fun () ->
        check "raises" true
          (try
             ignore (Eval.eval_test H.builtins Binding.empty (Action.int 3));
             false
           with Eval.Rule_error _ -> true));
  ]

let stmt_tests =
  [
    Alcotest.test_case "assignments build output descriptors" `Quick (fun () ->
        let b = binding [ ("D1", D.of_list [ ("n", V.Int 7) ]) ] in
        let stmts =
          Action.[ Assign_desc ("D2", Desc "D1"); Assign_prop ("D2", "n", int 9) ]
        in
        let b = Eval.exec_stmts ~protected:[ "D1" ] H.builtins b stmts in
        Alcotest.(check int) "override" 9 (D.get_int (Binding.desc b "D2") "n");
        Alcotest.(check int) "source untouched" 7 (D.get_int (Binding.desc b "D1") "n"));
    Alcotest.test_case "assigning a protected (LHS) descriptor raises" `Quick
      (fun () ->
        check "raises" true
          (try
             ignore
               (Eval.exec_stmts ~protected:[ "D1" ] H.builtins Binding.empty
                  Action.[ Assign_prop ("D1", "n", int 1) ]);
             false
           with Eval.Rule_error _ -> true));
    Alcotest.test_case "later statements read earlier outputs" `Quick (fun () ->
        let stmts =
          Action.
            [
              Assign_prop ("D2", "n", int 5);
              Assign_prop ("D2", "m", Binop (Add, Prop ("D2", "n"), int 1));
            ]
        in
        let b = Eval.exec_stmts ~protected:[] H.builtins Binding.empty stmts in
        Alcotest.(check int) "six" 6 (D.get_int (Binding.desc b "D2") "m"));
  ]

(* ------------------------------------------------------------------ *)
(* The paper's worked examples, on a concrete catalog                  *)
(* ------------------------------------------------------------------ *)

module SF = Prairie_catalog.Stored_file
module Catalog = Prairie_catalog.Catalog
module Rel = Prairie_algebra.Relational

let catalog =
  Catalog.of_files
    [
      Rel.relation ~name:"R1" ~cardinality:100 [ ("a", 10); ("k", 100) ];
      Rel.relation ~name:"R2" ~cardinality:200 [ ("a", 10); ("k", 200) ];
      Rel.relation ~name:"R3" ~cardinality:50 [ ("k", 50) ];
    ]

let helpers = Prairie_algebra.Helpers.env catalog
let ruleset = Rel.ruleset catalog
let eq a b = P.Cmp (P.Eq, P.T_attr a, P.T_attr b)
let r n = Rel.ret catalog n

(* JOIN(JOIN(R1,R2), R3) with the outer predicate over R2/R3: associable *)
let assoc_ok =
  Rel.join catalog
    ~pred:(eq (attr "R2" "k") (attr "R3" "k"))
    (Rel.join catalog ~pred:(eq (attr "R1" "a") (attr "R2" "a")) (r "R1") (r "R2"))
    (r "R3")

(* outer predicate references R1: not associable (paper Fig. 3c) *)
let assoc_bad =
  Rel.join catalog
    ~pred:(eq (attr "R1" "k") (attr "R3" "k"))
    (Rel.join catalog ~pred:(eq (attr "R1" "a") (attr "R2" "a")) (r "R1") (r "R2"))
    (r "R3")

let find_trule name = Option.get (Prairie.Ruleset.find_trule ruleset name)
let find_irule name = Option.get (Prairie.Ruleset.find_irule ruleset name)

let trule_tests =
  [
    Alcotest.test_case "join associativity applies (Fig 3b)" `Quick (fun () ->
        match Eval.apply_trule helpers (find_trule "join_assoc_left") assoc_ok with
        | None -> Alcotest.fail "should apply"
        | Some out ->
          check "rewritten" true
            (String.equal (Expr.to_string out) "JOIN(RET(R1), JOIN(RET(R2), RET(R3)))");
          (* the new inner join's annotations were computed by the actions *)
          let inner = List.nth (Expr.inputs out) 1 in
          let d = Expr.descriptor inner in
          check "inner pred" true
            (P.equal (D.get_pred d "join_predicate") (eq (attr "R2" "k") (attr "R3" "k")));
          (* |R2| * |R3| / max distinct(k) = 200 * 50 / 200 *)
          Alcotest.(check int) "inner card" 50 (D.get_int d "num_records");
          (* root keeps the overall statistics but takes the old inner
             join's predicate *)
          check "root pred" true
            (P.equal
               (D.get_pred (Expr.descriptor out) "join_predicate")
               (eq (attr "R1" "a") (attr "R2" "a"))));
    Alcotest.test_case "join associativity rejected on cross products (Fig 3c)"
      `Quick (fun () ->
        check "no rewrite" true
          (Eval.apply_trule helpers (find_trule "join_assoc_left") assoc_bad = None));
    Alcotest.test_case "commutativity preserves the descriptor" `Quick (fun () ->
        match Eval.apply_trule helpers (find_trule "join_commute") assoc_ok with
        | None -> Alcotest.fail "should apply"
        | Some out ->
          check "desc equal" true
            (D.equal (Expr.descriptor out) (Expr.descriptor assoc_ok));
          check "swapped" true
            (String.equal (Expr.to_string out)
               "JOIN(RET(R3), JOIN(RET(R1), RET(R2)))"));
    Alcotest.test_case "sort introduction wraps both inputs (footnote 5)" `Quick
      (fun () ->
        let two_way =
          Rel.join catalog ~pred:(eq (attr "R1" "a") (attr "R2" "a")) (r "R1") (r "R2")
        in
        match Eval.apply_trule helpers (find_trule "sort_intro_merge_join") two_way with
        | None -> Alcotest.fail "should apply"
        | Some out -> (
          check "shape" true
            (String.equal (Expr.to_string out) "JOPR(SORT(RET(R1)), SORT(RET(R2)))");
          match Expr.inputs out with
          | [ s1; _ ] ->
            check "left sort order = join attr" true
              (O.equal
                 (D.get_order (Expr.descriptor s1) "tuple_order")
                 (O.sorted_on (attr "R1" "a")))
          | _ -> Alcotest.fail "two inputs expected"));
  ]

let irule_tests =
  [
    Alcotest.test_case "Nested_loops two-phase application (Fig 6)" `Quick
      (fun () ->
        let two_way =
          Rel.join catalog ~pred:(eq (attr "R1" "a") (attr "R2" "a")) (r "R1") (r "R2")
        in
        let rule = find_irule "join_nested_loops" in
        match Eval.begin_irule helpers rule two_way with
        | None -> Alcotest.fail "should begin"
        | Some app ->
          let reqs = Option.get (Eval.input_requirements app) in
          Alcotest.(check int) "two inputs" 2 (List.length reqs);
          (* fake-optimize the inputs: attach costs *)
          let optimized_inputs =
            List.map
              (fun (i, sub) ->
                let cost = if i = 1 then 10.0 else 4.0 in
                (i, Expr.map_descriptor sub (fun d -> D.set_cost d cost)))
              reqs
          in
          let plan = Eval.finish_irule helpers app ~optimized_inputs in
          check "algorithm node" true (String.equal (Expr.label plan) "Nested_loops");
          (* cost(outer) + |outer| * cost(inner) = 10 + 100 * 4 *)
          checkf "cost formula" 410.0 (Expr.cost plan));
    Alcotest.test_case "Merge_sort applies only under an order (Fig 5)" `Quick
      (fun () ->
        let rule = find_irule "sort_merge_sort" in
        let sorted =
          Rel.sort catalog ~order:(O.sorted_on (attr "R1" "a")) (r "R1")
        in
        check "applies" true (Eval.begin_irule helpers rule sorted <> None);
        let unsorted = Rel.sort catalog ~order:O.Any (r "R1") in
        check "does not apply" true (Eval.begin_irule helpers rule unsorted = None));
    Alcotest.test_case "Null passes the requirement down (Fig 7b)" `Quick
      (fun () ->
        let rule = find_irule "sort_null" in
        let order = O.sorted_on (attr "R1" "a") in
        let sorted = Rel.sort catalog ~order (r "R1") in
        match Eval.begin_irule helpers rule sorted with
        | None -> Alcotest.fail "should begin"
        | Some app -> (
          match Eval.input_requirements app with
          | Some [ (1, sub) ] ->
            check "requirement propagated" true
              (O.equal (D.get_order (Expr.descriptor sub) "tuple_order") order);
            let optimized = Expr.map_descriptor sub (fun d -> D.set_cost d 3.5) in
            let plan = Eval.finish_irule helpers app ~optimized_inputs:[ (1, optimized) ] in
            check "null node" true (String.equal (Expr.label plan) "Null");
            checkf "cost is the input's" 3.5 (Expr.cost plan)
          | _ -> Alcotest.fail "one requirement expected"));
    Alcotest.test_case "File_scan rejects an order requirement" `Quick (fun () ->
        let rule = find_irule "ret_file_scan" in
        let plain = r "R1" in
        check "plain ok" true (Eval.begin_irule helpers rule plain <> None);
        let demanding =
          Expr.map_descriptor plain (fun d ->
              D.set d "tuple_order" (V.Order (O.sorted_on (attr "R1" "a"))))
        in
        check "ordered rejected" true (Eval.begin_irule helpers rule demanding = None));
  ]

let suites =
  [
    ("eval.expressions", expr_tests);
    ("eval.statements", stmt_tests);
    ("eval.trules", trule_tests);
    ("eval.irules", irule_tests);
  ]
