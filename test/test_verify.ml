(* The semantic rule verifier: planted-bug fixtures (one per P2xx code),
   determinism and purity properties, the code catalogue, and the shipped
   rule files as a verify-clean regression. *)

module Verify = Prairie_verify.Verify
module D = Prairie.Diagnostic
module Catalog = Prairie_catalog.Catalog
module W = Prairie_workload

let check = Support.check
let check_int = Support.check_int
let has = Support.has
let severity_of = Support.severity_of

(* Small budgets keep the suite quick; oracle_forms is tightened further
   because the planted growth fixture makes closure computation expensive
   (the verifier skips oracle comparison once the cap is hit, but it pays
   for the capped closure first). *)
let config ?(budget = 4) () =
  { Verify.default_config with Verify.budget; Verify.oracle_forms = 64 }
let verify ?budget src = (Verify.verify_string ~config:(config ?budget ()) src).Verify.diagnostics

(* ------------------------------------------------------------------ *)
(* Planted bugs: each fixture smuggles one semantic defect past the    *)
(* static linter; the verifier must catch it — and stay quiet once the *)
(* defect is repaired.                                                 *)
(* ------------------------------------------------------------------ *)

(* P220: the nested-loops cost *decreases* in its input costs, so the
   cheapest full plan uses the most expensive scans.  Volcano's memo
   keeps only the cheapest plan per group and can never build it; the
   naive oracle enumerates everything and finds it. *)
let wrongcost bad =
  Printf.sprintf
    {|
ruleset wrongcost;
property tuple_order : ORDER;
property num_records : INT;
property tuple_size : INT;
property cost : COST;
operator RET(1);
operator JOIN(2);
algorithm File_scan(1);
algorithm Slow_scan(1);
algorithm Nested_loops(2);

irule ret_scan:
  RET(?1) : D2 ==> File_scan(?1) : D3
  test { is_dont_care(D2.tuple_order) }
  pre { D3 = D2; }
  post { D3.cost = cost_file_scan(D1.num_records, D1.tuple_size); }

irule ret_slow:
  RET(?1) : D2 ==> Slow_scan(?1) : D3
  test { is_dont_care(D2.tuple_order) }
  pre { D3 = D2; }
  post { D3.cost = cost_file_scan(D1.num_records, D1.tuple_size)
                 + cost_file_scan(D1.num_records, D1.tuple_size); }

irule join_nl:
  JOIN(?1, ?2) : D3 ==> Nested_loops(?1, ?2) : D4
  pre { D4 = D3; }
  post { D4.cost = %s; }
|}
    (if bad then "1000000 - D1.cost - D2.cost"
     else "D1.cost + D2.cost + D1.num_records * D2.num_records")

(* Every declared operator must be implementable or elaboration fails,
   so the single-operator fixtures share this boilerplate footer. *)
let ab_impls =
  {|
algorithm XA(1);
algorithm XB(1);

irule a_impl:
  A(?1) : D2 ==> XA(?1) : D3
  pre { D3 = D2; }
  post { D3.cost = 7; }

irule b_impl:
  B(?1) : D2 ==> XB(?1) : D3
  pre { D3 = D2; }
  post { D3.cost = 7; }
|}

(* P210: the rewrite forgets to carry num_records across, so the two
   sides of the "equivalence" are not cost-comparable. *)
let propdrop bad =
  Printf.sprintf
    {|
ruleset propdrop;
property attributes : ATTRIBUTES;
property num_records : INT;
property tuple_size : INT;
property cost : COST;
operator A(1);
operator B(1);

trule drop:
  A(?1) : D2 ==> B(?1) : D3
  post { %s }
%s|}
    (if bad then "D3.attributes = D2.attributes; D3.tuple_size = D2.tuple_size;"
     else "D3 = D2;")
    ab_impls

(* P230: an inverse pair whose guards are syntactically non-trivial (so
   static P031 is silent) but both pass on every generated input.  The
   fix partitions the guards so the pair can never fire back-to-back. *)
let inversepair bad =
  Printf.sprintf
    {|
ruleset inversepair;
property attributes : ATTRIBUTES;
property num_records : INT;
property tuple_size : INT;
property cost : COST;
operator A(1);
operator B(1);

trule ab:
  A(?1) : D2 ==> B(?1) : D3
  test { %s }
  post { D3 = D2; }

trule ba:
  B(?1) : D2 ==> A(?1) : D3
  test { %s }
  post { D3 = D2; }
%s|}
    (if bad then "D2.num_records > 0" else "D2.num_records > 100")
    (if bad then "D2.num_records > 0" else "D2.num_records < 100")
    ab_impls

(* P231: self-application wraps another A around the tree every time —
   unbounded growth the static checks cannot see. *)
let grow bad =
  Printf.sprintf
    {|
ruleset grow;
property attributes : ATTRIBUTES;
property num_records : INT;
property tuple_size : INT;
property cost : COST;
operator A(1);
operator B(1);

trule wrap:
  A(?1) : D2 ==> %s
  test { D2.num_records > 0 }
  post { %s }
%s|}
    (if bad then "A(A(?1) : D3) : D4" else "B(?1) : D3")
    (if bad then "D3 = D2; D4 = D2;" else "D3 = D2;")
    ab_impls

let fixture_cases =
  [
    ("P220", wrongcost true, wrongcost false);
    ("P210", propdrop true, propdrop false);
    ("P230", inversepair true, inversepair false);
    ("P231", grow true, grow false);
    ("P000", "ruleset broken", "ruleset fine;");
  ]

let fixture_tests =
  Support.fixture_tests ~run:(fun src -> verify src) fixture_cases
  @ [
      Alcotest.test_case "elaboration errors are lint's diagnostics" `Quick
        (fun () ->
          (* a spec that does not elaborate reports exactly lint's errors *)
          let src =
            {|ruleset t; operator A(1);
              trule r: A(?1) : D2 ==> A(?1) : D3 post { D3 = D2; }|}
          in
          let lint_errors = D.errors (Prairie_lint.Lint.lint_string src) in
          check "P009" true (has "P009" lint_errors);
          check "same diagnostics" true (verify src = lint_errors);
          check "fixed" false (has "P009" (verify (propdrop false))));
      Alcotest.test_case "counterexamples carry a reproducible witness" `Quick
        (fun () ->
          let ds = verify (propdrop true) in
          let d =
            List.find (fun (d : D.t) -> String.equal d.D.code "P210") ds
          in
          let contains sub s =
            let n = String.length sub and m = String.length s in
            let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
            go 0
          in
          check "names the rule" true (d.D.rule = Some "drop");
          check "message shows the property" true
            (contains "num_records" d.D.message);
          check "message shows the witness catalog" true
            (contains "[catalog" d.D.message);
          (match d.D.hint with
          | Some h ->
            check "hint shows the master seed" true (contains "--seed" h);
            check "hint shows the case seed" true (contains "case seed" h)
          | None -> Alcotest.fail "expected a repro hint"));
      Alcotest.test_case "severities match the catalogue" `Quick (fun () ->
          check "P210 is an error" true
            (List.for_all (( = ) D.Error) (severity_of "P210" (verify (propdrop true))));
          check "P230 is a warning" true
            (List.for_all (( = ) D.Warning) (severity_of "P230" (verify (inversepair true))));
          check "P231 is a warning" true
            (List.for_all (( = ) D.Warning) (severity_of "P231" (verify (grow true)))));
      Alcotest.test_case "lint:allow downgrades P2xx warnings" `Quick (fun () ->
          let src = "// lint:allow P230 -- exercised on purpose\n" ^ inversepair true in
          let ds = verify src in
          check "still reported" true (has "P230" ds);
          check "as info" true
            (List.for_all (( = ) D.Info) (severity_of "P230" ds)));
      Alcotest.test_case "rule filter skips other rules and the oracle" `Quick
        (fun () ->
          let config = { (config ()) with Verify.rules = [ "ab" ] } in
          let r = Verify.verify_string ~config (inversepair true) in
          check "only ab checked" true
            (List.for_all
               (fun (rr : Verify.rule_report) -> String.equal rr.Verify.rule "ab")
               r.Verify.rules);
          check_int "one rule" 1 r.Verify.rules_checked;
          check "cycle still found" true (has "P230" r.Verify.diagnostics));
    ]

(* ------------------------------------------------------------------ *)
(* Determinism and purity                                              *)
(* ------------------------------------------------------------------ *)

let oodb_instance = lazy (W.Queries.instance W.Queries.Q5 ~joins:2 ~seed:17)

let run_cost ruleset q =
  let tr = Prairie_p2v.Translate.translate ruleset in
  let ctx = Prairie_volcano.Search.create tr.Prairie_p2v.Translate.volcano in
  let expr, required = Prairie_p2v.Translate.prepare_query tr q in
  match Prairie_volcano.Search.optimize ~required ctx expr with
  | Some p -> Prairie_volcano.Plan.cost p
  | None -> infinity

let property_tests =
  [
    Alcotest.test_case "verification is deterministic in the seed" `Quick
      (fun () ->
        let r1 = Verify.verify_string ~config:(config ~budget:2 ()) (inversepair true) in
        let r2 = Verify.verify_string ~config:(config ~budget:2 ()) (inversepair true) in
        check "same diagnostics" true
          (r1.Verify.diagnostics = r2.Verify.diagnostics);
        check "same stats" true (r1.Verify.rules = r2.Verify.rules);
        let r3 =
          Verify.verify_string
            ~config:{ (config ~budget:2 ()) with Verify.seed = 43 }
            (inversepair true)
        in
        check_int "seed recorded" 43 r3.Verify.seed);
    Alcotest.test_case "diagnostics are normalized" `Quick (fun () ->
        let ds = verify (inversepair true) in
        check "normalized" true (D.normalize ds = ds));
    Alcotest.test_case "verification never perturbs a live rule set" `Quick
      (fun () ->
        let inst = Lazy.force oodb_instance in
        let rs = Prairie_algebra.Oodb.ruleset inst.W.Queries.catalog in
        let trules_before =
          List.map (fun (r : Prairie.Trule.t) -> r.Prairie.Trule.name)
            rs.Prairie.Ruleset.trules
        in
        let c1 = run_cost rs inst.W.Queries.expr in
        let report =
          Verify.verify_ruleset
            ~config:{ (config ~budget:1 ()) with Verify.rules = [ "join_commute" ] }
            (fun _ -> rs)
        in
        ignore report;
        let c2 = run_cost rs inst.W.Queries.expr in
        check "same optimization result" true (Float.equal c1 c2);
        check "same rules" true
          (trules_before
          = List.map (fun (r : Prairie.Trule.t) -> r.Prairie.Trule.name)
              rs.Prairie.Ruleset.trules));
  ]

(* ------------------------------------------------------------------ *)
(* Catalogue                                                           *)
(* ------------------------------------------------------------------ *)

let catalogue_tests =
  [
    Alcotest.test_case "catalogue codes are unique, P2xx, catalogued" `Quick
      (fun () ->
        let codes = D.catalogue_codes Verify.catalogue in
        check_int "unique" (List.length codes)
          (List.length (List.sort_uniq String.compare codes));
        check "P2xx or parse" true
          (List.for_all
             (fun c ->
               String.length c = 4 && c.[0] = 'P'
               && (c.[1] = '2' || String.equal c "P000"))
             codes);
        List.iter
          (fun (code, _, _) ->
            check (code ^ " catalogued") true (List.mem code codes))
          fixture_cases);
    Alcotest.test_case "catalogue_find agrees with emitted severities" `Quick
      (fun () ->
        match D.catalogue_find Verify.catalogue "P210" with
        | Some (sev, _) -> check "error" true (sev = D.Error)
        | None -> Alcotest.fail "P210 missing from catalogue");
  ]

(* ------------------------------------------------------------------ *)
(* Shipped rule files                                                  *)
(* ------------------------------------------------------------------ *)

let shipped_tests =
  [
    Alcotest.test_case "shipped rule files verify without errors or warnings"
      `Quick (fun () ->
        List.iter
          (fun path ->
            let r = Verify.verify_string ~config:(config ~budget:2 ()) (Support.read_file path) in
            let errors, warnings, _ = D.summary r.Verify.diagnostics in
            check_int (path ^ " errors") 0 errors;
            check_int (path ^ " warnings") 0 warnings;
            check (path ^ " checked something") true (r.Verify.rules_checked > 0))
          Support.shipped_rule_files);
    (* mat_pull_join recomputes its inner JOIN's cardinality, so closure
       forms reach MAT(JOIN(..)) whose estimates differ by rounding (537 vs
       536 rows); pushing the MAT back must not be blamed for that *)
    Alcotest.test_case "closure rounding drift is not reported as P210"
      `Quick (fun () ->
        let config =
          {
            (config ~budget:4 ()) with
            Verify.rules = [ "mat_push_join_left"; "mat_push_join_right" ];
          }
        in
        let r = Verify.verify_string ~config (Support.read_file "../rules/open_oodb.prairie") in
        check "no P210" false (has "P210" r.Verify.diagnostics));
    Alcotest.test_case "shipped cycles are pragma-downgraded, not absent"
      `Quick (fun () ->
        let r =
          Verify.verify_string ~config:(config ~budget:2 ())
            (Support.read_file "../rules/open_oodb.prairie")
        in
        let ds = r.Verify.diagnostics in
        check "P230 visible" true (has "P230" ds);
        check "as info" true
          (List.for_all (( = ) D.Info) (severity_of "P230" ds)));
  ]

let suites =
  [
    ("verify.fixtures", fixture_tests);
    ("verify.properties", property_tests);
    ("verify.catalogue", catalogue_tests);
    ("verify.shipped", shipped_tests);
  ]
