(* The memo: groups, global deduplication, merging. *)

module Memo = Prairie_volcano.Memo
module D = Prairie.Descriptor
module V = Prairie_value.Value
module Expr = Prairie.Expr

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let d tag = D.of_list [ ("tag", V.Str tag) ]

let basic_tests =
  [
    Alcotest.test_case "file insertion is idempotent" `Quick (fun () ->
        let m = Memo.create () in
        let g1 = Memo.insert_expr m (Expr.stored ~desc:(d "r") "R") in
        let g2 = Memo.insert_expr m (Expr.stored ~desc:(d "r") "R") in
        check_int "same group" g1 g2;
        check_int "one group" 1 (Memo.group_count m));
    Alcotest.test_case "expression insertion is bottom-up and deduplicated"
      `Quick (fun () ->
        let m = Memo.create () in
        let tree =
          Expr.operator "JOIN" (d "j")
            [ Expr.stored ~desc:(d "r1") "R1"; Expr.stored ~desc:(d "r2") "R2" ]
        in
        let g1 = Memo.insert_expr m tree in
        let g2 = Memo.insert_expr m tree in
        check_int "same group" g1 g2;
        check_int "three groups" 3 (Memo.group_count m);
        check_int "three lexprs" 3 (Memo.lexpr_count m));
    Alcotest.test_case "group descriptors come from node descriptors" `Quick
      (fun () ->
        let m = Memo.create () in
        let g = Memo.insert_expr m (Expr.operator "RET" (d "ret") [ Expr.stored ~desc:(d "f") "F" ]) in
        check "ret desc" true (D.equal (Memo.group_desc m g) (d "ret")));
    Alcotest.test_case "gtree insertion into a group adds a member" `Quick
      (fun () ->
        let m = Memo.create () in
        let gf = Memo.insert_expr m (Expr.stored ~desc:(d "f") "F") in
        let g = Memo.insert_expr m (Expr.operator "RET" (d "ret") [ Expr.stored ~desc:(d "f") "F" ]) in
        let _, fresh =
          Memo.insert_gtree m ~into:g (Memo.Gnode ("RET2", d "ret2", [ Memo.Gleaf gf ]))
        in
        check "fresh" true fresh;
        check_int "two members" 2 (List.length (Memo.lexprs m g));
        (* duplicate insertion is detected *)
        let _, fresh2 =
          Memo.insert_gtree m ~into:g (Memo.Gnode ("RET2", d "ret2", [ Memo.Gleaf gf ]))
        in
        check "not fresh" false fresh2);
    Alcotest.test_case "algorithm nodes are rejected" `Quick (fun () ->
        let m = Memo.create () in
        check "raises" true
          (try
             ignore (Memo.insert_expr m (Expr.algorithm "Scan" (d "s") [ Expr.stored "F" ]));
             false
           with Invalid_argument _ -> true));
  ]

let merge_tests =
  [
    Alcotest.test_case "discovered duplicates merge their groups" `Quick
      (fun () ->
        let m = Memo.create () in
        (* Two distinct root groups, then prove them equal by inserting the
           same lexpr into both. *)
        let gf = Memo.insert_expr m (Expr.stored ~desc:(d "f") "F") in
        let a = Memo.insert_expr m (Expr.operator "A" (d "a") [ Expr.stored ~desc:(d "f") "F" ]) in
        let b = Memo.insert_expr m (Expr.operator "B" (d "b") [ Expr.stored ~desc:(d "f") "F" ]) in
        check "distinct" true (Memo.canonical m a <> Memo.canonical m b);
        let count_before = Memo.group_count m in
        let _ = Memo.insert_gtree m ~into:a (Memo.Gnode ("X", d "x", [ Memo.Gleaf gf ])) in
        let _ = Memo.insert_gtree m ~into:b (Memo.Gnode ("X", d "x", [ Memo.Gleaf gf ])) in
        check_int "merged" (Memo.canonical m a) (Memo.canonical m b);
        check_int "one fewer group" (count_before - 1) (Memo.group_count m);
        (* all members now live in the canonical group *)
        (* A, B and one X: the duplicate X was deduplicated *)
        check_int "members" 3 (List.length (Memo.lexprs m a)));
    Alcotest.test_case "winners survive by canonical group" `Quick (fun () ->
        let m = Memo.create () in
        let g = Memo.insert_expr m (Expr.stored ~desc:(d "f") "F") in
        let req = D.empty in
        Memo.set_winner m g req { Memo.plan = None; cost = infinity; searched_limit = 1.0 };
        check "found" true (Memo.find_winner m g req <> None);
        Memo.clear_winners m;
        check "cleared" true (Memo.find_winner m g req = None));
    Alcotest.test_case "rule_tried bookkeeping" `Quick (fun () ->
        let m = Memo.create () in
        let g = Memo.insert_expr m (Expr.operator "RET" (d "r") [ Expr.stored ~desc:(d "f") "F" ]) in
        let le = List.hd (Memo.lexprs m g) in
        check "untried" false (Memo.rule_tried m le 1);
        Memo.mark_rule_tried m le 1;
        check "tried" true (Memo.rule_tried m le 1);
        check "other rule untried" false (Memo.rule_tried m le 2));
  ]

let suites = [ ("memo.basic", basic_tests); ("memo.merge", merge_tests) ]
