(* The whole-rule-set analyzer: planted-bug fixtures per P3xx code,
   explicit-roots reachability, pragma downgrades, the P008/P320
   boundary, determinism, and the shipped rule sets' cleanliness. *)

module Analysis = Prairie_analysis.Analysis
module Lint = Prairie_lint.Lint
module Dsl = Prairie_dsl
module D = Prairie.Diagnostic
module W = Prairie_workload

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let analyze ?config src = (Analysis.analyze_string ?config src).Analysis.diagnostics
let has = Support.has

(* Each case: (code, triggering source, corrected source); default roots. *)
let fixture_cases =
  [
    ( "P000",
      "ruleset broken",
      "ruleset fine;" );
    ( "P301",
      {|ruleset t; operator A(1); operator B(1); property num_records : INT;
        trule r: A(?1) : D2 ==> B(?1) : D3
        test { 1 > 2 } post { D3 = D2; }|},
      {|ruleset t; operator A(1); operator B(1); property num_records : INT;
        trule r: A(?1) : D2 ==> B(?1) : D3
        test { D2.num_records > 2 } post { D3 = D2; }|} );
    ( "P302",
      {|ruleset t; operator A(1); operator B(1);
        trule r: A(?1) : D2 ==> B(?1) : D3
        test { 1 < 2 } post { D3 = D2; }|},
      {|ruleset t; operator A(1); operator B(1);
        trule r: A(?1) : D2 ==> B(?1) : D3
        test { TRUE } post { D3 = D2; }|} );
    ( "P310",
      (* the index scan demands an order on its input, but there is no
         enforcer and no algorithm establishes one *)
      {|ruleset t; operator A(1); algorithm X(1);
        property tuple_order : ORDER; property cost : COST;
        irule r: A(?1) : D2 ==> X(?1 : D3) : D4
        pre { D4 = D2; D3 = D1; D3.tuple_order = D2.tuple_order; }
        post { D4.cost = D1.cost; }|},
      {|ruleset t; operator A(1); operator S(1);
        algorithm X(1); algorithm SortAlg(1);
        property tuple_order : ORDER; property cost : COST;
        irule r: A(?1) : D2 ==> X(?1 : D3) : D4
        pre { D4 = D2; D3 = D1; D3.tuple_order = D2.tuple_order; }
        post { D4.cost = D1.cost; }
        irule s_null: S(?1) : D2 ==> Null(?1 : D3) : D4
        pre { D4 = D2; D3.tuple_order = D2.tuple_order; }
        post { D4.cost = D1.cost; }
        irule s_sort: S(?1) : D2 ==> SortAlg(?1) : D3
        pre { D3 = D2; } post { D3.cost = D1.cost; }|} );
    ( "P311",
      {|ruleset t; operator A(1); algorithm X(1);
        property flavour : INT; property cost : COST;
        irule r: A(?1) : D2 ==> X(?1) : D3
        pre { D3 = D2; } post { D3.cost = 1; D3.flavour = 7; }|},
      {|ruleset t; operator A(1); algorithm X(1);
        property flavour : INT; property cost : COST;
        irule r: A(?1) : D2 ==> X(?1) : D3
        test { D2.flavour > 0 }
        pre { D3 = D2; } post { D3.cost = 1; D3.flavour = 7; }|} );
    ( "P320",
      (* r2 rewrites A(A(_)) exactly as the unguarded general rule r1
         rewrites any A(_): every redex of r2 is already covered *)
      {|ruleset t; operator A(1); operator B(1);
        trule r1: A(?1) : D2 ==> B(?1) : D3 post { D3 = D2; }
        trule r2: A(A(?1) : D4) : D5 ==> B(A(?1) : D6) : D7
        post { D7 = D5; D6 = D4; }|},
      {|ruleset t; operator A(1); operator B(1);
        trule r1: A(?1) : D2 ==> B(?1) : D3 post { D3 = D2; }|} );
    ( "P321",
      {|ruleset t; operator A(1); operator B(1); operator C(1);
        trule r1: A(?1) : D2 ==> B(?1) : D3 post { D3 = D2; }
        trule r2: A(?1) : D2 ==> C(?1) : D3 post { D3 = D2; }|},
      {|ruleset t; operator A(1); operator B(1); operator C(1);
        property num_records : INT;
        trule r1: A(?1) : D2 ==> B(?1) : D3 post { D3 = D2; }
        trule r2: A(?1) : D2 ==> C(?1) : D3
        test { D2.num_records > 10 } post { D3 = D2; }|} );
  ]

let fixture_tests = Support.fixture_tests ~run:analyze fixture_cases

(* P300 needs explicit roots: the default seeds the closure with every
   declared non-enforcer operator, which makes every LHS reachable. *)
let reachability_spec =
  {|ruleset t; operator A(1); operator B(1); operator C(1);
    algorithm X(1); property cost : COST; property num_records : INT;
    trule t1: A(?1) : D2 ==> B(?1) : D3
    test { D2.num_records > 0 } post { D3 = D2; }
    trule t2: C(?1) : D2 ==> B(?1) : D3
    test { D2.num_records > 0 } post { D3 = D2; }
    irule a_x: A(?1) : D2 ==> X(?1) : D3
    pre { D3 = D2; } post { D3.cost = 1; }
    irule b_x: B(?1) : D2 ==> X(?1) : D3
    pre { D3 = D2; } post { D3.cost = 1; }
    irule c_x: C(?1) : D2 ==> X(?1) : D3
    pre { D3 = D2; } post { D3.cost = 1; }|}

let reachability_tests =
  [
    Alcotest.test_case "P300 fires under explicit roots" `Quick (fun () ->
        let config = { Analysis.roots = [ "A" ] } in
        let r = Analysis.analyze_string ~config reachability_spec in
        check "P300 triggered" true (has "P300" r.Analysis.diagnostics);
        Alcotest.(check (list string))
          "closure" [ "A"; "B" ] r.Analysis.reachable;
        Alcotest.(check (list string))
          "unreachable rules" [ "t2" ] r.Analysis.unreachable_rules);
    Alcotest.test_case "default roots reach every declared operator" `Quick
      (fun () ->
        let r = Analysis.analyze_string reachability_spec in
        check "no P300" false (has "P300" r.Analysis.diagnostics);
        Alcotest.(check (list string))
          "closure" [ "A"; "B"; "C" ] r.Analysis.reachable);
    Alcotest.test_case "rule outputs extend the closure" `Quick (fun () ->
        (* B is not a root, but A ==> B makes it reachable, so t3 on B is
           live; C stays out, so t2 is flagged *)
        let config = { Analysis.roots = [ "A" ] } in
        let src =
          reachability_spec
          ^ {|
             trule t3: B(?1) : D2 ==> A(?1) : D3
             test { D2.num_records > 0 } post { D3 = D2; }|}
        in
        let r = Analysis.analyze_string ~config src in
        Alcotest.(check (list string))
          "only t2 unreachable" [ "t2" ] r.Analysis.unreachable_rules);
  ]

(* A P301-dead rule stays in the Volcano set: the search matches it, and
   its test rejects every binding. *)
let dead_rule_tests =
  [
    Alcotest.test_case "a P301 dead rule is matched, never applied" `Quick
      (fun () ->
        let src =
          {|ruleset t; operator A(1); operator B(1); algorithm X(1);
            property cost : COST; property num_records : INT;
            trule live: A(?1) : D2 ==> B(?1) : D3
            test { D2.num_records > 0 } post { D3 = D2; }
            trule dead: A(?1) : D2 ==> B(?1) : D3
            test { 2 < 1 } post { D3 = D2; }
            irule a_x: A(?1) : D2 ==> X(?1) : D3
            pre { D3 = D2; } post { D3.cost = 1; }
            irule b_x: B(?1) : D2 ==> X(?1) : D3
            pre { D3 = D2; } post { D3.cost = 1; }|}
        in
        let r = Analysis.analyze_string src in
        Alcotest.(check (list string)) "analysis" [ "dead" ] r.Analysis.dead_rules;
        let rs =
          Dsl.Elaborate.elaborate ~helpers:Prairie.Helper_env.builtins
            (Dsl.Parser.parse src)
        in
        let module V = Prairie_volcano in
        let module E = Prairie.Expr in
        let volcano = (Prairie_p2v.Translate.translate rs).Prairie_p2v.Translate.volcano in
        Alcotest.(check (list string))
          "volcano set keeps both rules" [ "live"; "dead" ]
          (List.map
             (fun (t : V.Rule.trans_rule) -> t.V.Rule.tr_name)
             volcano.V.Rule.rs_trans);
        let d = Prairie.Descriptor.of_list [ ("num_records", Prairie_value.Value.Int 10) ] in
        let ctx = V.Search.create volcano in
        ignore (V.Search.optimize ctx (E.Node (E.Operator, "A", d, [ E.Stored ("R", d) ])));
        let stats = V.Search.stats ctx in
        let accounts = V.Stats.trans_accounts stats in
        Alcotest.(check (list string))
          "both matched" [ "dead"; "live" ]
          (List.filter_map
             (fun (name, (a : V.Stats.account)) ->
               if a.matched > 0 then Some name else None)
             accounts);
        Alcotest.(check (list string))
          "only the live rule applied" [ "live" ]
          (List.filter_map
             (fun (name, (a : V.Stats.account)) ->
               if a.applied > 0 then Some name else None)
             accounts));
  ]

(* The P008/P320 boundary: exact-shape duplicates are lint's P008 and NOT
   P320 (strictness requires a variable bound to a composite sub-pattern);
   strict subsumption is P320 and NOT P008 (the shapes differ). *)
let boundary_tests =
  [
    Alcotest.test_case "exact duplicates are P008, not P320" `Quick (fun () ->
        let src =
          {|ruleset t; operator A(1); operator B(1);
            trule r1: A(?1) : D2 ==> B(?1) : D3 post { D3 = D2; }
            trule r2: A(?1) : D2 ==> B(?1) : D3 post { D3 = D2; }|}
        in
        check "lint P008" true (has "P008" (Lint.lint_string src));
        check "no P320" false (has "P320" (analyze src)));
    Alcotest.test_case "strict subsumption is P320, not P008" `Quick (fun () ->
        let _, bad, _ =
          List.find (fun (c, _, _) -> String.equal c "P320") fixture_cases
        in
        check "analysis P320" true (has "P320" (analyze bad));
        check "no P008" false (has "P008" (Lint.lint_string bad)));
  ]

let pragma_tests =
  [
    Alcotest.test_case "pragmas downgrade P3xx warnings to info" `Quick
      (fun () ->
        let _, bad, _ =
          List.find (fun (c, _, _) -> String.equal c "P321") fixture_cases
        in
        let src = "// lint:allow P321 -- deliberate exploration fork\n" ^ bad in
        let ds = analyze src in
        check "still reported" true (has "P321" ds);
        check "as info" true
          (List.for_all (( = ) D.Info) (Support.severity_of "P321" ds)));
  ]

let catalogue_tests =
  [
    Alcotest.test_case "catalogue codes are unique, P000 or P3xx" `Quick
      (fun () ->
        let codes = List.map (fun (c, _, _) -> c) Analysis.catalogue in
        check_int "unique" (List.length codes)
          (List.length (List.sort_uniq String.compare codes));
        check "shape" true
          (List.for_all
             (fun c ->
               String.length c = 4
               && (String.equal c "P000" || String.sub c 0 2 = "P3"))
             codes));
    Alcotest.test_case "every fixture code is catalogued" `Quick (fun () ->
        let codes = List.map (fun (c, _, _) -> c) Analysis.catalogue in
        List.iter
          (fun (code, _, _) ->
            check (code ^ " catalogued") true (List.mem code codes))
          fixture_cases;
        check "P300 catalogued" true (List.mem "P300" codes));
  ]

let shipped_tests =
  [
    Alcotest.test_case "shipped rule files analyze clean" `Quick (fun () ->
        List.iter
          (fun path ->
            let r = Analysis.analyze_string (Support.read_file path) in
            let errors, warnings, _ = D.summary r.Analysis.diagnostics in
            check_int (path ^ " errors") 0 errors;
            check_int (path ^ " warnings") 0 warnings;
            Alcotest.(check (list string))
              (path ^ " dead rules") [] r.Analysis.dead_rules;
            Alcotest.(check (list string))
              (path ^ " unreachable rules") [] r.Analysis.unreachable_rules)
          Support.shipped_rule_files);
    Alcotest.test_case "the OODB critical pair is downgraded, not absent"
      `Quick (fun () ->
        let r = Analysis.analyze_string (Support.read_file "../rules/open_oodb.prairie") in
        check "P321 visible" true (has "P321" r.Analysis.diagnostics);
        check "as info" true
          (List.for_all (( = ) D.Info)
             (Support.severity_of "P321" r.Analysis.diagnostics)));
    Alcotest.test_case "shipped property flow is closed" `Quick (fun () ->
        let r = Analysis.analyze_string (Support.read_file "../rules/relational.prairie") in
        check "every required property is producible" true
          (List.for_all
             (fun p -> List.mem p r.Analysis.produced_physical)
             r.Analysis.required_physical));
  ]

(* Determinism: analysis is a pure function of the source — repeated runs
   agree exactly, reports are normalized, and the spec is not perturbed. *)
let oodb_instance = lazy (W.Queries.instance W.Queries.Q5 ~joins:2 ~seed:17)

let subset_ruleset mask =
  let inst = Lazy.force oodb_instance in
  let base = Prairie_algebra.Oodb.ruleset inst.W.Queries.catalog in
  let trules =
    List.filteri
      (fun i _ -> mask land (1 lsl (i mod 16)) <> 0 || i mod 7 = 0)
      base.Prairie.Ruleset.trules
  in
  { base with Prairie.Ruleset.trules }

let property_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"analysis is deterministic and pure" ~count:40
         QCheck2.Gen.(int_bound 65535)
         (fun mask ->
           let rs = subset_ruleset mask in
           let src = Dsl.Render.ruleset_to_string rs in
           let r1 = Analysis.analyze_string src in
           let r2 = Analysis.analyze_string src in
           r1 = r2
           && D.normalize r1.Analysis.diagnostics = r1.Analysis.diagnostics
           && Dsl.Render.ruleset_to_string rs = src));
  ]

let suites =
  [
    ("analysis.fixtures", fixture_tests);
    ("analysis.reachability", reachability_tests);
    ("analysis.dead_rules", dead_rule_tests);
    ("analysis.boundary", boundary_tests);
    ("analysis.pragmas", pragma_tests);
    ("analysis.catalogue", catalogue_tests);
    ("analysis.shipped", shipped_tests);
    ("analysis.properties", property_tests);
  ]
