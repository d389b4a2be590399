(* Patterns, templates, matching and instantiation. *)

module Pattern = Prairie.Pattern
module Binding = Prairie.Pattern.Binding
module Expr = Prairie.Expr
module D = Prairie.Descriptor
module V = Prairie_value.Value

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let desc n = D.of_list [ ("tag", V.Str n) ]
let leaf n = Expr.stored ~desc:(desc n) n

let join l r = Expr.operator "JOIN" (desc "j") [ l; r ]
let ret x = Expr.operator "RET" (desc "r") [ x ]

(* JOIN(RET(A), JOIN(RET(B), RET(C))) *)
let sample =
  join (ret (leaf "A")) (Expr.operator "JOIN" (desc "j2") [ ret (leaf "B"); ret (leaf "C") ])

let matching_tests =
  [
    Alcotest.test_case "stream variable matches anything" `Quick (fun () ->
        let pat = Pattern.Pop ("JOIN", "DJ", [ Pattern.Pvar 1; Pattern.Pvar 2 ]) in
        match Pattern.matches pat sample with
        | None -> Alcotest.fail "should match"
        | Some b ->
          check "D1 bound to RET desc" true
            (D.equal (Binding.desc b "D1") (desc "r"));
          check "DJ bound to root desc" true (D.equal (Binding.desc b "DJ") (desc "j"));
          check "stream 2 is the inner join" true
            (String.equal (Expr.label (Binding.stream b 2)) "JOIN"));
    Alcotest.test_case "nested pattern binds inner descriptors" `Quick (fun () ->
        let pat =
          Pattern.Pop
            ( "JOIN",
              "D5",
              [ Pattern.Pvar 1; Pattern.Pop ("JOIN", "D4", [ Pattern.Pvar 2; Pattern.Pvar 3 ]) ] )
        in
        match Pattern.matches pat sample with
        | None -> Alcotest.fail "should match"
        | Some b ->
          check "D4 inner join" true (D.equal (Binding.desc b "D4") (desc "j2"));
          check "stream 3 is RET(C)" true
            (String.equal (Expr.to_string (Binding.stream b 3)) "RET(C)"));
    Alcotest.test_case "wrong operator fails" `Quick (fun () ->
        let pat = Pattern.Pop ("SELECT", "D", [ Pattern.Pvar 1 ]) in
        check "no match" true (Pattern.matches pat sample = None));
    Alcotest.test_case "wrong arity fails" `Quick (fun () ->
        let pat = Pattern.Pop ("JOIN", "D", [ Pattern.Pvar 1 ]) in
        check "no match" true (Pattern.matches pat sample = None));
    Alcotest.test_case "leaf does not match an operator pattern" `Quick (fun () ->
        let pat = Pattern.Pop ("A", "D", []) in
        check "no match" true (Pattern.matches pat (leaf "A") = None));
    Alcotest.test_case "nested pattern mismatch in subtree fails" `Quick
      (fun () ->
        let pat =
          Pattern.Pop
            ("JOIN", "D5", [ Pattern.Pop ("JOIN", "D4", [ Pattern.Pvar 1; Pattern.Pvar 2 ]); Pattern.Pvar 3 ])
        in
        (* left child is RET, not JOIN *)
        check "no match" true (Pattern.matches pat sample = None));
  ]

let meta_tests =
  [
    Alcotest.test_case "vars and desc_vars" `Quick (fun () ->
        let pat =
          Pattern.Pop
            ("JOIN", "D5", [ Pattern.Pop ("JOIN", "D4", [ Pattern.Pvar 1; Pattern.Pvar 2 ]); Pattern.Pvar 3 ])
        in
        Alcotest.(check (list int)) "vars" [ 1; 2; 3 ] (Pattern.vars pat);
        Alcotest.(check (list string))
          "descs" [ "D1"; "D2"; "D3"; "D4"; "D5" ]
          (Pattern.desc_vars pat));
    Alcotest.test_case "tmpl_desc_vars includes re-descriptors" `Quick (fun () ->
        let t =
          Pattern.Tnode ("A", "DA", [ Pattern.Tvar (1, Some "DR"); Pattern.Tvar (2, None) ])
        in
        Alcotest.(check (list string)) "descs" [ "DA"; "DR" ] (Pattern.tmpl_desc_vars t));
    Alcotest.test_case "tmpl_nodes preorder" `Quick (fun () ->
        let t =
          Pattern.Tnode
            ("A", "DA", [ Pattern.Tnode ("B", "DB", [ Pattern.Tvar (1, None) ]) ])
        in
        check_int "two nodes" 2 (List.length (Pattern.tmpl_nodes t));
        check "order" true (List.hd (Pattern.tmpl_nodes t) = ("A", "DA")));
  ]

let instantiate_tests =
  [
    Alcotest.test_case "instantiate rebuilds with computed descriptors" `Quick
      (fun () ->
        let pat = Pattern.Pop ("JOIN", "D3", [ Pattern.Pvar 1; Pattern.Pvar 2 ]) in
        let b = Option.get (Pattern.matches pat sample) in
        let b = Binding.bind_desc b "D4" (desc "out") in
        let tmpl = Pattern.Tnode ("JOIN", "D4", [ Pattern.Tvar (2, None); Pattern.Tvar (1, None) ]) in
        let out = Pattern.instantiate ~kind:Expr.Operator tmpl b in
        check "commuted" true
          (String.equal (Expr.to_string out) "JOIN(JOIN(RET(B), RET(C)), RET(A))");
        check "desc" true (D.equal (Expr.descriptor out) (desc "out")));
    Alcotest.test_case "re-descriptored stream swaps its root descriptor" `Quick
      (fun () ->
        let pat = Pattern.Pop ("JOIN", "D3", [ Pattern.Pvar 1; Pattern.Pvar 2 ]) in
        let b = Option.get (Pattern.matches pat sample) in
        let req = desc "required" in
        let b = Binding.bind_desc b "DR" req in
        let b = Binding.bind_desc b "DA" (desc "alg") in
        let tmpl =
          Pattern.Tnode ("Alg", "DA", [ Pattern.Tvar (1, Some "DR"); Pattern.Tvar (2, None) ])
        in
        let out = Pattern.instantiate ~kind:Expr.Algorithm tmpl b in
        match out with
        | Expr.Node (Expr.Algorithm, "Alg", _, [ first; second ]) ->
          check "first re-descriptored" true (D.equal (Expr.descriptor first) req);
          check "second untouched" true (D.equal (Expr.descriptor second) (desc "j2"))
        | _ -> Alcotest.fail "unexpected shape");
    Alcotest.test_case "unbound stream variable raises" `Quick (fun () ->
        let tmpl = Pattern.Tnode ("A", "D", [ Pattern.Tvar (9, None) ]) in
        check "raises" true
          (try
             ignore (Pattern.instantiate ~kind:Expr.Operator tmpl Binding.empty);
             false
           with Invalid_argument _ -> true));
  ]

let expr_tests =
  [
    Alcotest.test_case "is_operator_tree / is_access_plan" `Quick (fun () ->
        check "op tree" true (Expr.is_operator_tree sample);
        check "not plan" false (Expr.is_access_plan sample);
        let plan = Expr.algorithm "File_scan" D.empty [ leaf "A" ] in
        check "plan" true (Expr.is_access_plan plan);
        check "leaf is both" true
          (Expr.is_operator_tree (leaf "A") && Expr.is_access_plan (leaf "A")));
    Alcotest.test_case "size and operators_used" `Quick (fun () ->
        check_int "size" 8 (Expr.size sample);
        Alcotest.(check (list string))
          "ops" [ "JOIN"; "RET" ] (Expr.operators_used sample));
    Alcotest.test_case "stored_files keeps order and duplicates" `Quick (fun () ->
        Alcotest.(check (list string))
          "files" [ "A"; "B"; "C" ] (Expr.stored_files sample));
    Alcotest.test_case "equal_shape ignores descriptors" `Quick (fun () ->
        let other = Expr.with_descriptor sample (desc "different") in
        check "shape equal" true (Expr.equal_shape sample other);
        check "not equal" false (Expr.equal sample other));
    Alcotest.test_case "equal implies same hash" `Quick (fun () ->
        check "hash" true (Expr.hash sample = Expr.hash sample));
  ]

let suites =
  [
    ("pattern.matching", matching_tests);
    ("pattern.meta", meta_tests);
    ("pattern.instantiate", instantiate_tests);
    ("pattern.expr", expr_tests);
  ]
