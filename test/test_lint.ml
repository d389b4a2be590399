(* The rule-set linter: one minimal fixture per diagnostic code (a
   triggering spec and a corrected one), pragma downgrades, JSON output,
   the merge-warning rewiring, and the purity properties. *)

module Dsl = Prairie_dsl
module Lint = Prairie_lint.Lint
module D = Prairie.Diagnostic
module Catalog = Prairie_catalog.Catalog
module W = Prairie_workload

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let lint src = Lint.lint_string src
let has = Support.has
let severity_of = Support.severity_of

(* A spec every check family accepts: all declarations used, every
   operator implemented, descriptors bound before use, costs assigned in
   I-rule posts, no unguarded rewrite loops. *)
let clean_spec =
  {|
ruleset tiny;
property tuple_order : ORDER;
property num_records : INT;
property cost : COST;
operator RET(1);
operator JOIN(2);
algorithm File_scan(1);
algorithm Nested_loops(2);

trule join_assoc:
  JOIN(JOIN(?1, ?2) : D4, ?3) : D5 ==> JOIN(?1, JOIN(?2, ?3) : D6) : D7
  test { D4.num_records > 1 }
  post { D6 = D4; D7 = D5; }

irule ret_scan:
  RET(?1) : D2 ==> File_scan(?1) : D3
  test { is_dont_care(D2.tuple_order) }
  pre { D3 = D2; }
  post { D3.cost = cost_file_scan(D1.num_records, D1.num_records); }

irule join_nl:
  JOIN(?1, ?2) : D3 ==> Nested_loops(?1, ?2) : D4
  pre { D4 = D3; }
  post { D4.cost = D1.cost + D2.cost + D1.num_records * D2.num_records; }
|}

(* Each case: (code, triggering source, corrected source).  The corrected
   spec may have unrelated findings; it must not have the case's code. *)
let fixture_cases =
  [
    ( "P000",
      "ruleset broken",
      "ruleset fine;" );
    ( "P001",
      {|ruleset t; operator A(1); algorithm X(1); property cost : COST;
        irule r: A(?1) : D2 ==> X(?1) : D3
        pre { D3 = D2; }
        post { D3.cost = 1; D3.bogus = 1; }|},
      {|ruleset t; operator A(1); algorithm X(1); property cost : COST;
        property bogus : INT;
        irule r: A(?1) : D2 ==> X(?1) : D3
        pre { D3 = D2; }
        post { D3.cost = 1; D3.bogus = 1; }|} );
    ( "P002",
      {|ruleset t; property site : STRING;|},
      clean_spec );
    ( "P003",
      {|ruleset t; operator A(1); property cost : COST;
        irule r: A(?1) : D2 ==> X(?1) : D3
        pre { D3 = D2; } post { D3.cost = 1; }|},
      {|ruleset t; operator A(1); algorithm X(1); property cost : COST;
        irule r: A(?1) : D2 ==> X(?1) : D3
        pre { D3 = D2; } post { D3.cost = 1; }|} );
    ( "P004",
      {|ruleset t; algorithm Hash_join(2);|},
      clean_spec );
    ( "P005",
      {|ruleset t; operator A(2); algorithm X(1); property cost : COST;
        irule r: A(?1) : D2 ==> X(?1) : D3
        pre { D3 = D2; } post { D3.cost = 1; }|},
      {|ruleset t; operator A(1); algorithm X(1); property cost : COST;
        irule r: A(?1) : D2 ==> X(?1) : D3
        pre { D3 = D2; } post { D3.cost = 1; }|} );
    ( "P006",
      {|ruleset t; property a : INT; property a : INT;|},
      {|ruleset t; property a : INT;|} );
    ( "P007",
      {|ruleset t; operator A(1); operator B(1);
        trule r: A(?1) : D2 ==> B(?1) : D3 post { D3 = D2; }
        trule r: A(?1) : D2 ==> B(?1) : D3 post { D3 = D2; }|},
      {|ruleset t; operator A(1); operator B(1);
        trule r: A(?1) : D2 ==> B(?1) : D3 post { D3 = D2; }|} );
    ( "P008",
      {|ruleset t; operator A(1); operator B(1); property num_records : INT;
        trule r1: A(?1) : D2 ==> B(?1) : D3 post { D3 = D2; }
        trule r2: A(?1) : D2 ==> B(?1) : D3 post { D3 = D2; }|},
      {|ruleset t; operator A(1); operator B(1); property num_records : INT;
        trule r1: A(?1) : D2 ==> B(?1) : D3
        test { D2.num_records > 1 } post { D3 = D2; }
        trule r2: A(?1) : D2 ==> B(?1) : D3
        test { D2.num_records < 2 } post { D3 = D2; }|} );
    ( "P009",
      {|ruleset t; operator A(1); operator B(1);
        trule r: A(?1) : D2 ==> B(?1) : D3 post { D3 = D2; }|},
      clean_spec );
    ( "P010",
      {|ruleset t; operator A(1); algorithm X(1); property num_records : INT;
        property cost : COST;
        irule r: A(?1) : D2 ==> X(?1) : D3
        test { D9.num_records > 0 }
        pre { D3 = D2; } post { D3.cost = 1; }|},
      {|ruleset t; operator A(1); algorithm X(1); property num_records : INT;
        property cost : COST;
        irule r: A(?1) : D2 ==> X(?1) : D3
        test { D2.num_records > 0 }
        pre { D3 = D2; } post { D3.cost = 1; }|} );
    ( "P011",
      {|ruleset t; operator A(1); algorithm X(1); property cost : COST;
        irule r: A(?1) : D2 ==> X(?1) : D3
        pre { D3 = D1; } post { D3.cost = 1; }|},
      {|ruleset t; operator A(1); algorithm X(1); property cost : COST;
        irule r: A(?1) : D2 ==> X(?1) : D3
        pre { D3 = D2; } post { D3.cost = 1; }|} );
    ( "P012",
      {|ruleset t; operator A(1); algorithm X(1); property cost : COST;
        irule r: A(?1) : D2 ==> X(?2) : D3
        pre { D3 = D2; } post { D3.cost = 1; }|},
      {|ruleset t; operator A(1); algorithm X(1); property cost : COST;
        irule r: A(?1) : D2 ==> X(?1) : D3
        pre { D3 = D2; } post { D3.cost = 1; }|} );
    ( "P013",
      {|ruleset t; operator A(2); algorithm X(1); property cost : COST;
        irule r: A(?1, ?2) : D2 ==> X(?1) : D3
        pre { D3 = D2; } post { D3.cost = 1; }|},
      {|ruleset t; operator A(2); algorithm X(2); property cost : COST;
        irule r: A(?1, ?2) : D2 ==> X(?1, ?2) : D3
        pre { D3 = D2; } post { D3.cost = 1; }|} );
    ( "P014",
      {|ruleset t; operator A(2); algorithm X(1); property cost : COST;
        irule r: A(?1, ?1) : D2 ==> X(?1) : D3
        pre { D3 = D2; } post { D3.cost = 1; }|},
      {|ruleset t; operator A(1); algorithm X(1); property cost : COST;
        irule r: A(?1) : D2 ==> X(?1) : D3
        pre { D3 = D2; } post { D3.cost = 1; }|} );
    ( "P016",
      {|ruleset t; operator A(1); algorithm X(1); property cost : COST;
        irule r: A(?1) : D1 ==> X(?1) : D3
        pre { D3 = D1; } post { D3.cost = 1; }|},
      {|ruleset t; operator A(1); algorithm X(1); property cost : COST;
        irule r: A(?1) : D2 ==> X(?1) : D3
        pre { D3 = D2; } post { D3.cost = 1; }|} );
    ( "P017",
      {|ruleset t; operator A(1); algorithm X(1); property cost : COST;
        property join_predicate : PREDICATE;
        irule r: A(?1) : D2 ==> X(?1) : D3
        pre { D3 = D2; D3.join_predicate = "true"; } post { D3.cost = 1; }|},
      {|ruleset t; operator A(1); algorithm X(1); property cost : COST;
        property join_predicate : PREDICATE;
        irule r: A(?1) : D2 ==> X(?1) : D3
        pre { D3 = D2; D3.join_predicate = TRUE_PRED; } post { D3.cost = 1; }|} );
    ( "P020",
      {|ruleset t; operator A(1); operator B(1); property cost : COST;
        trule r: A(?1) : D2 ==> B(?1) : D3
        post { D3 = D2; D3.cost = D2.cost; }|},
      {|ruleset t; operator A(1); operator B(1); property cost : COST;
        trule r: A(?1) : D2 ==> B(?1) : D3
        post { D3 = D2; }|} );
    ( "P021",
      {|ruleset t; operator A(1); algorithm X(1); property cost : COST;
        irule r: A(?1) : D2 ==> X(?1) : D3
        test { D2.cost > 1 }
        pre { D3 = D2; } post { D3.cost = D1.cost; }|},
      {|ruleset t; operator A(1); algorithm X(1); property cost : COST;
        irule r: A(?1) : D2 ==> X(?1) : D3
        pre { D3 = D2; } post { D3.cost = D1.cost; }|} );
    ( "P022",
      {|ruleset t; operator A(1); algorithm X(1); property cost : COST;
        irule r: A(?1) : D2 ==> X(?1) : D3
        pre { D3 = D2; }|},
      {|ruleset t; operator A(1); algorithm X(1); property cost : COST;
        irule r: A(?1) : D2 ==> X(?1) : D3
        pre { D3 = D2; } post { D3.cost = D1.cost; }|} );
    ( "P023",
      {|ruleset t; property tuple_order : ORDER; property cost : COST;
        operator A(1); operator B(1); algorithm X(1);
        trule t1: B(?1) : D2 ==> A(?1) : D5
        post { D5 = D2; D5.tuple_order = D2.tuple_order; }
        irule r: A(?1) : D2 ==> X(?1 : D3) : D4
        pre { D4 = D2; D3 = D1; D3.tuple_order = D2.tuple_order; }
        post { D4.cost = D1.cost; }|},
      {|ruleset t; property tuple_order : ORDER; property cost : COST;
        operator A(1); operator B(1); algorithm X(1);
        trule t1: B(?1) : D2 ==> A(?1) : D5
        post { D5 = D2; D5.tuple_order = DONT_CARE; }
        irule r: A(?1) : D2 ==> X(?1 : D3) : D4
        pre { D4 = D2; D3 = D1; D3.tuple_order = D2.tuple_order; }
        post { D4.cost = D1.cost; }|} );
    ( "P030",
      {|ruleset t; operator A(1); property num_records : INT;
        trule r: A(?1) : D2 ==> A(?1) : D3 post { D3 = D2; }|},
      {|ruleset t; operator A(1); property num_records : INT;
        trule r: A(?1) : D2 ==> A(?1) : D3
        test { D2.num_records > 1 } post { D3 = D2; }|} );
    ( "P031",
      {|ruleset t; operator A(1); operator B(1); property num_records : INT;
        trule r1: A(?1) : D2 ==> B(?1) : D3 post { D3 = D2; }
        trule r2: B(?1) : D2 ==> A(?1) : D3 post { D3 = D2; }|},
      {|ruleset t; operator A(1); operator B(1); property num_records : INT;
        trule r1: A(?1) : D2 ==> B(?1) : D3 post { D3 = D2; }
        trule r2: B(?1) : D2 ==> A(?1) : D3
        test { D2.num_records > 1 } post { D3 = D2; }|} );
    ( "P040",
      {|ruleset t; operator J(2); property cost : COST;
        irule n: J(?1, ?2) : D3 ==> Null(?1, ?2) : D4
        pre { D4 = D3; } post { D4.cost = D1.cost; }|},
      {|ruleset t; operator S(1); algorithm SortAlg(1);
        property tuple_order : ORDER; property cost : COST;
        irule n: S(?1) : D2 ==> Null(?1 : D3) : D4
        pre { D4 = D2; D3.tuple_order = D2.tuple_order; }
        post { D4.cost = D1.cost; }
        irule s_sort: S(?1) : D2 ==> SortAlg(?1) : D3
        pre { D3 = D2; } post { D3.cost = D1.cost; }|} );
    ( "P041",
      {|ruleset t; operator S(1); algorithm SortAlg(2);
        property tuple_order : ORDER; property cost : COST;
        irule n: S(?1) : D2 ==> Null(?1 : D3) : D4
        pre { D4 = D2; D3.tuple_order = D2.tuple_order; }
        post { D4.cost = D1.cost; }
        irule s_sort: S(?1, ?2) : D2 ==> SortAlg(?1, ?2) : D3
        pre { D3 = D2; } post { D3.cost = D1.cost; }|},
      {|ruleset t; operator S(1); algorithm SortAlg(1);
        property tuple_order : ORDER; property cost : COST;
        irule n: S(?1) : D2 ==> Null(?1 : D3) : D4
        pre { D4 = D2; D3.tuple_order = D2.tuple_order; }
        post { D4.cost = D1.cost; }
        irule s_sort: S(?1) : D2 ==> SortAlg(?1) : D3
        pre { D3 = D2; } post { D3.cost = D1.cost; }|} );
    ( "P042",
      {|ruleset t; operator S(1); algorithm SortAlg(1); property cost : COST;
        irule n: S(?1) : D2 ==> Null(?1) : D4
        pre { D4 = D2; } post { D4.cost = D1.cost; }
        irule s_sort: S(?1) : D2 ==> SortAlg(?1) : D3
        pre { D3 = D2; } post { D3.cost = D1.cost; }|},
      {|ruleset t; operator S(1); algorithm SortAlg(1);
        property tuple_order : ORDER; property cost : COST;
        irule n: S(?1) : D2 ==> Null(?1 : D3) : D4
        pre { D4 = D2; D3.tuple_order = D2.tuple_order; }
        post { D4.cost = D1.cost; }
        irule s_sort: S(?1) : D2 ==> SortAlg(?1) : D3
        pre { D3 = D2; } post { D3.cost = D1.cost; }|} );
    ( "P043",
      {|ruleset t; operator S(1); property tuple_order : ORDER;
        property cost : COST;
        irule n: S(?1) : D2 ==> Null(?1 : D3) : D4
        pre { D4 = D2; D3.tuple_order = D2.tuple_order; }
        post { D4.cost = D1.cost; }|},
      {|ruleset t; operator S(1); algorithm SortAlg(1);
        property tuple_order : ORDER; property cost : COST;
        irule n: S(?1) : D2 ==> Null(?1 : D3) : D4
        pre { D4 = D2; D3.tuple_order = D2.tuple_order; }
        post { D4.cost = D1.cost; }
        irule s_sort: S(?1) : D2 ==> SortAlg(?1) : D3
        pre { D3 = D2; } post { D3.cost = D1.cost; }|} );
  ]

let fixture_tests =
  Alcotest.test_case "clean fixture has no findings" `Quick (fun () ->
      let ds = lint clean_spec in
      check_int "no diagnostics" 0 (List.length ds))
  :: Support.fixture_tests ~run:lint fixture_cases

let helper_tests =
  [
    Alcotest.test_case "P015 needs a helper environment" `Quick (fun () ->
        let src =
          {|ruleset t; operator A(1); algorithm X(1); property cost : COST;
            irule r: A(?1) : D2 ==> X(?1) : D3
            pre { D3 = D2; } post { D3.cost = mystery(1); }|}
        in
        check "skipped without helpers" false (has "P015" (lint src));
        check "fires with helpers" true
          (has "P015"
             (Lint.lint_string ~helpers:Prairie.Helper_env.builtins src));
        let good =
          {|ruleset t; operator A(1); algorithm X(1); property cost : COST;
            irule r: A(?1) : D2 ==> X(?1) : D3
            pre { D3 = D2; } post { D3.cost = abs(1); }|}
        in
        check "registered helper accepted" false
          (has "P015"
             (Lint.lint_string ~helpers:Prairie.Helper_env.builtins good)));
  ]

let pragma_tests =
  [
    Alcotest.test_case "allow_pragmas parses codes and lines" `Quick (fun () ->
        let src = "// lint:allow P002 P030 -- schema mirrors the catalog\nruleset t;\n// lint:allow P004\n" in
        check "pairs" true
          (Lint.allow_pragmas src
          = [ ("P002", 1); ("P030", 1); ("P004", 3) ]));
    Alcotest.test_case "pragma downgrades warnings to info" `Quick (fun () ->
        let src = "// lint:allow P002 -- kept for the catalog\nruleset t; property site : STRING;" in
        check "still reported" true (has "P002" (lint src));
        check "as info" true
          (List.for_all (( = ) D.Info) (severity_of "P002" (lint src))));
    Alcotest.test_case "pragma never downgrades errors" `Quick (fun () ->
        let src =
          {|// lint:allow P003
ruleset t; operator A(1); property cost : COST;
irule r: A(?1) : D2 ==> X(?1) : D3 pre { D3 = D2; } post { D3.cost = 1; }|}
        in
        check "still an error" true
          (List.exists (( = ) D.Error) (severity_of "P003" (lint src))));
  ]

let catalogue_tests =
  [
    Alcotest.test_case "catalogue codes are unique and well-formed" `Quick
      (fun () ->
        let codes = List.map (fun (c, _, _) -> c) Lint.catalogue in
        check_int "unique" (List.length codes)
          (List.length (List.sort_uniq String.compare codes));
        check "shape" true
          (List.for_all
             (fun c -> String.length c = 4 && c.[0] = 'P')
             codes));
    Alcotest.test_case "every emitted code is catalogued" `Quick (fun () ->
        let codes = List.map (fun (c, _, _) -> c) Lint.catalogue in
        List.iter
          (fun (code, bad, _) ->
            ignore bad;
            check (code ^ " catalogued") true (List.mem code codes))
          fixture_cases);
  ]

let json_tests =
  [
    Alcotest.test_case "to_json emits all known fields" `Quick (fun () ->
        let d =
          D.warning ~code:"P002" ~rule:"r" ~span:{ D.line = 3; column = 7 }
            ~hint:"drop it" "unused"
        in
        let j = D.to_json d in
        let contains sub =
          let n = String.length sub and m = String.length j in
          let rec go i = i + n <= m && (String.sub j i n = sub || go (i + 1)) in
          go 0
        in
        check "code" true (contains {|"code":"P002"|});
        check "severity" true (contains {|"severity":"warning"|});
        check "line" true (contains {|"line":3|});
        check "column" true (contains {|"column":7|});
        check "rule" true (contains {|"rule":"r"|});
        check "hint" true (contains {|"hint":"drop it"|}));
    Alcotest.test_case "to_json escapes quotes and control characters" `Quick
      (fun () ->
        let d = D.error ~code:"P000" "bad \"name\"\nwith newline" in
        let j = D.to_json d in
        let contains sub =
          let n = String.length sub and m = String.length j in
          let rec go i = i + n <= m && (String.sub j i n = sub || go (i + 1)) in
          go 0
        in
        check "escaped quote" true (contains {|\"name\"|});
        check "escaped newline" true (contains {|\n|});
        check "no raw newline" false (String.contains j '\n'));
  ]

let shipped_tests =
  [
    Alcotest.test_case "shipped rule files lint without errors or warnings"
      `Quick (fun () ->
        List.iter
          (fun path ->
            let ds =
              Lint.lint_file
                ~helpers:(Prairie_algebra.Helpers.env Catalog.empty) path
            in
            let errors, warnings, _ = Lint.summary ds in
            check_int (path ^ " errors") 0 errors;
            check_int (path ^ " warnings") 0 warnings)
          [ "../rules/relational.prairie"; "../rules/open_oodb.prairie" ]);
    Alcotest.test_case "shipped findings are pragma-downgraded, not absent"
      `Quick (fun () ->
        let ds =
          Lint.lint_file
            ~helpers:(Prairie_algebra.Helpers.env Catalog.empty)
            "../rules/open_oodb.prairie"
        in
        check "P002 visible as info" true (has "P002" ds);
        check "P030 visible as info" true (has "P030" ds);
        check "all info" true
          (List.for_all (fun (d : D.t) -> d.D.severity = D.Info) ds));
  ]

let merge_warning_tests =
  [
    Alcotest.test_case "merge warnings are diagnostics in stable order" `Quick
      (fun () ->
        let rs =
          Dsl.Elaborate.load
            ~helpers:(Prairie_algebra.Helpers.env Catalog.empty)
            "../rules/open_oodb.prairie"
        in
        let m1 = Prairie_p2v.Merge.merge rs in
        let m2 = Prairie_p2v.Merge.merge rs in
        check "deterministic" true
          (m1.Prairie_p2v.Merge.warnings = m2.Prairie_p2v.Merge.warnings);
        check "normalized" true
          (D.normalize m1.Prairie_p2v.Merge.warnings
          = m1.Prairie_p2v.Merge.warnings);
        check "codes are P1xx" true
          (List.for_all
             (fun (d : D.t) ->
               String.length d.D.code = 4 && String.sub d.D.code 0 2 = "P1")
             m1.Prairie_p2v.Merge.warnings));
  ]

(* ------------------------------------------------------------------ *)
(* Properties: linting is pure — it never perturbs the spec it reads,  *)
(* and a linted rule set optimizes exactly as before.                  *)
(* ------------------------------------------------------------------ *)

let oodb_instance =
  lazy (W.Queries.instance W.Queries.Q5 ~joins:2 ~seed:17)

let subset_ruleset mask =
  let inst = Lazy.force oodb_instance in
  let base = Prairie_algebra.Oodb.ruleset inst.W.Queries.catalog in
  let trules =
    List.filteri
      (fun i _ -> mask land (1 lsl (i mod 16)) <> 0 || i mod 7 = 0)
      base.Prairie.Ruleset.trules
  in
  { base with Prairie.Ruleset.trules }

let run_cost ruleset q =
  let tr = Prairie_p2v.Translate.translate ruleset in
  let ctx = Prairie_volcano.Search.create tr.Prairie_p2v.Translate.volcano in
  let expr, required = Prairie_p2v.Translate.prepare_query tr q in
  match Prairie_volcano.Search.optimize ~required ctx expr with
  | Some p -> Prairie_volcano.Plan.cost p
  | None -> infinity

let property_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"linting never mutates the spec" ~count:40
         QCheck2.Gen.(int_bound 65535)
         (fun mask ->
           let rs = subset_ruleset mask in
           let src = Dsl.Render.ruleset_to_string rs in
           let spec = Dsl.Parser.parse src in
           let before = Dsl.Parser.parse src in
           let ds1 = Lint.check_spec spec in
           let ds2 = Lint.check_spec spec in
           ds1 = ds2
           && D.normalize ds1 = ds1
           && spec = before
           && Dsl.Render.ruleset_to_string rs = src));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make
         ~name:"lint-clean specs optimize to the same plan cost" ~count:10
         QCheck2.Gen.(int_bound 65535)
         (fun mask ->
           let inst = Lazy.force oodb_instance in
           let rs = subset_ruleset mask in
           let c1 = run_cost rs inst.W.Queries.expr in
           let src = Dsl.Render.ruleset_to_string rs in
           let ds = Lint.lint_string src in
           let c2 = run_cost rs inst.W.Queries.expr in
           ignore ds;
           Float.equal c1 c2));
  ]

let suites =
  [
    ("lint.fixtures", fixture_tests);
    ("lint.helpers", helper_tests);
    ("lint.pragmas", pragma_tests);
    ("lint.catalogue", catalogue_tests);
    ("lint.json", json_tests);
    ("lint.shipped", shipped_tests);
    ("lint.merge_warnings", merge_warning_tests);
    ("lint.properties", property_tests);
  ]
