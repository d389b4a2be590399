(* T-rules, I-rules and rule sets, and the well-formedness of rule text. *)

module Pattern = Prairie.Pattern
module Action = Prairie.Action
module Trule = Prairie.Trule
module Irule = Prairie.Irule
module Ruleset = Prairie.Ruleset
module V = Prairie_value.Value

let check = Alcotest.(check bool)
let v i = Pattern.Pvar i
let pop n d subs = Pattern.Pop (n, d, subs)
let tv i = Pattern.Tvar (i, None)
let tn n d subs = Pattern.Tnode (n, d, subs)

(* Rule well-formedness is a property of rule text: each case adds rules
   to a spec whose operators are declared and implemented, and the
   validator ({!Prairie_dsl.Check}, run by lint and by elaboration) must
   accept or reject it. *)
let spec rules =
  {|ruleset t; property n : INT; property cost : COST;
    operator J(2); operator A(1); algorithm X(2); algorithm Y(1);
    irule j_impl: J(?1, ?2) : D3 ==> X(?1, ?2) : D4 pre { D4 = D3; } post { D4.cost = 1; }
    irule a_impl: A(?1) : D2 ==> Y(?1) : D3 pre { D3 = D2; } post { D3.cost = 1; }
|}
  ^ rules

let rejects code rules = Support.check_rejects code (spec rules)

let trule_tests =
  [
    Alcotest.test_case "valid rule passes" `Quick (fun () ->
        let rs =
          Prairie_dsl.Elaborate.load_string ~helpers:Prairie.Helper_env.builtins
            (spec "trule ok: J(?1, ?2) : D3 ==> J(?2, ?1) : D4 post { D4 = D3; }")
        in
        check "elaborates" true (Ruleset.find_trule rs "ok" <> None));
    Alcotest.test_case "RHS variable unbound by LHS" `Quick (fun () ->
        rejects "P012" "trule bad: A(?1) : D2 ==> A(?7) : D3 post { D3 = D2; }");
    Alcotest.test_case "assignment to an LHS descriptor rejected" `Quick
      (fun () -> rejects "P019" "trule bad: A(?1) : D2 ==> A(?1) : D3 post { D2.n = 1; }");
    Alcotest.test_case "read of an undefined descriptor rejected" `Quick
      (fun () -> rejects "P010" "trule bad: A(?1) : D2 ==> A(?1) : D3 post { D3.n = D9.n; }");
    Alcotest.test_case "input/output descriptor classification" `Quick (fun () ->
        let r =
          Trule.make ~name:"r"
            ~lhs:(pop "J" "D3" [ v 1; v 2 ])
            ~rhs:(tn "J" "D4" [ tv 1; tv 2 ])
            ()
        in
        Alcotest.(check (list string))
          "inputs" [ "D1"; "D2"; "D3" ] (Trule.input_descriptors r);
        Alcotest.(check (list string)) "outputs" [ "D4" ] (Trule.output_descriptors r));
  ]

let irule_tests =
  [
    Alcotest.test_case "accessors" `Quick (fun () ->
        let r =
          Irule.make ~name:"r"
            ~lhs:(pop "JOIN" "D3" [ v 1; v 2 ])
            ~rhs:(tn "NL" "D5" [ Pattern.Tvar (1, Some "D4"); tv 2 ])
            ()
        in
        Alcotest.(check string) "op" "JOIN" (Irule.operator r);
        Alcotest.(check string) "alg" "NL" (Irule.algorithm r);
        Alcotest.(check string) "op desc" "D3" (Irule.operator_descriptor r);
        Alcotest.(check string) "alg desc" "D5" (Irule.algorithm_descriptor r);
        check "redescs" true (Irule.redescriptored_inputs r = [ (1, "D4") ]);
        check "not null" false (Irule.is_null_rule r));
    Alcotest.test_case "null detection" `Quick (fun () ->
        let r =
          Irule.make ~name:"n"
            ~lhs:(pop "SORT" "D2" [ v 1 ])
            ~rhs:(tn Irule.null_algorithm "D4" [ Pattern.Tvar (1, Some "D3") ])
            ()
        in
        check "null rule" true (Irule.is_null_rule r));
    Alcotest.test_case "LHS must be an operator over variables" `Quick (fun () ->
        rejects "P044"
          "irule bad: A(A(?1) : D2) : D3 ==> Y(?1) : D4 pre { D4 = D3; } post { D4.cost = 1; }");
    Alcotest.test_case "RHS must use the same variables in order" `Quick
      (fun () ->
        rejects "P044"
          "irule bad: J(?1, ?2) : D3 ==> X(?2, ?1) : D4 pre { D4 = D3; } post { D4.cost = 1; }");
    Alcotest.test_case "duplicate variables rejected" `Quick (fun () ->
        rejects "P044"
          "irule bad: J(?1, ?1) : D3 ==> X(?1, ?1) : D4 pre { D4 = D3; } post { D4.cost = 1; }");
  ]

let ruleset_tests =
  [
    Alcotest.test_case "unimplementable operator flagged" `Quick (fun () ->
        rejects "P009" "operator B(1); trule t: A(?1) : D2 ==> B(?1) : D3 post { D3 = D2; }");
    Alcotest.test_case "unregistered helper flagged" `Quick (fun () ->
        rejects "P015"
          "irule i: A(?1) : D2 ==> Y(?1) : D3 pre { D3 = D2; } post { D3.cost = mystery(); }");
    Alcotest.test_case "irules_for filters by operator" `Quick (fun () ->
        let mk op name =
          Irule.make ~name
            ~lhs:(pop op "D2" [ v 1 ])
            ~rhs:(tn ("A" ^ name) "D3" [ tv 1 ])
            ()
        in
        let rs = Ruleset.make ~irules:[ mk "RET" "a"; mk "RET" "b"; mk "SEL" "c" ] "t" in
        Alcotest.(check int) "two" 2 (List.length (Ruleset.irules_for rs "RET")));
    Alcotest.test_case "shipped rule sets validate" `Quick (fun () ->
        let cat =
          Prairie_catalog.Catalog.of_files
            [ Prairie_algebra.Relational.relation ~name:"R" ~cardinality:10 [ ("a", 5) ] ]
        in
        Alcotest.(check (list string)) "relational" []
          (Support.rule_text_errors (Prairie_algebra.Relational.ruleset cat));
        Alcotest.(check (list string)) "oodb" []
          (Support.rule_text_errors (Prairie_algebra.Oodb.ruleset cat)));
    Alcotest.test_case "paper rule counts" `Quick (fun () ->
        let cat = Prairie_catalog.Catalog.empty in
        let oodb = Prairie_algebra.Oodb.ruleset cat in
        Alcotest.(check int) "22 T-rules" 22 (Ruleset.trule_count oodb);
        Alcotest.(check int) "11 I-rules" 11 (Ruleset.irule_count oodb));
  ]

let suites =
  [
    ("rules.trule", trule_tests);
    ("rules.irule", irule_tests);
    ("rules.ruleset", ruleset_tests);
  ]
