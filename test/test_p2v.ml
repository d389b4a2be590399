(* The P2V pre-processor: enforcer detection, property classification, rule
   merging, translation and query preparation. *)

module P2v = Prairie_p2v
module Rel = Prairie_algebra.Relational
module Oodb = Prairie_algebra.Oodb
module Catalog = Prairie_catalog.Catalog
module D = Prairie.Descriptor
module V = Prairie_value.Value
module O = Prairie_value.Order
module A = Prairie_value.Attribute
module Irule = Prairie.Irule

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let attr o n = A.make ~owner:o ~name:n

let catalog =
  Catalog.of_files
    [
      Rel.relation ~name:"R1" ~cardinality:100 [ ("a", 10) ];
      Rel.relation ~name:"R2" ~cardinality:100 [ ("a", 10) ];
    ]

let rel = Rel.ruleset catalog
let oodb = Oodb.ruleset catalog
let eq_pred a b = Prairie_value.Predicate.(Cmp (Eq, T_attr a, T_attr b))

(* The best cost the P2V-translated rule set finds, and the exhaustive
   oracle's; infinity when there is no plan. *)
let volcano_cost rs q =
  let tr = P2v.Translate.translate rs in
  let ctx = Prairie_volcano.Search.create tr.P2v.Translate.volcano in
  match Prairie_volcano.Search.optimize ctx q with
  | Some p -> Prairie_volcano.Plan.cost p
  | None -> infinity

let naive_cost rs q =
  match Prairie.Naive.best_plan rs ~required:D.empty q with
  | Some r -> r.Prairie.Naive.cost
  | None -> infinity

(* The cram test's renaming fixtures: rules/relational.prairie edited so
   that sort_intro_merge_join cannot be composed away. *)
let fixture ?(catalog = catalog) name =
  Prairie_dsl.Elaborate.load_string
    ~helpers:(Prairie_algebra.Helpers.env catalog)
    (Support.read_file ("cli.t/" ^ name))

let jopr_rules (m : P2v.Merge.result) =
  List.filter
    (fun (r : Irule.t) -> String.equal (Irule.operator r) "JOPR")
    m.P2v.Merge.impl_irules

let enforcer_tests =
  [
    Alcotest.test_case "SORT detected as the enforcer-operator" `Quick (fun () ->
        let infos = P2v.Enforcers.detect rel in
        check_int "one" 1 (List.length infos);
        let info = List.hd infos in
        Alcotest.(check string) "operator" "SORT" info.P2v.Enforcers.operator;
        Alcotest.(check (list string))
          "enforces tuple_order" [ "tuple_order" ]
          info.P2v.Enforcers.enforced_properties;
        Alcotest.(check (list string))
          "merge sort is the enforcer algorithm" [ "Merge_sort" ]
          (List.map Irule.algorithm info.P2v.Enforcers.algorithm_rules));
    Alcotest.test_case "operators without Null rules are not enforcers" `Quick
      (fun () ->
        let infos = P2v.Enforcers.detect rel in
        check "JOIN not enforcer" false (P2v.Enforcers.is_enforcer_operator infos "JOIN"));
  ]

let classify_tests =
  [
    Alcotest.test_case "classification of the relational properties" `Quick
      (fun () ->
        let c = P2v.Classify.classify rel in
        Alcotest.(check (list string)) "cost" [ "cost" ] c.P2v.Classify.cost;
        Alcotest.(check (list string))
          "physical" [ "tuple_order" ] c.P2v.Classify.physical;
        check "attributes is an argument" true
          (List.mem "attributes" c.P2v.Classify.argument);
        check "num_records is an argument" true
          (List.mem "num_records" c.P2v.Classify.argument));
    Alcotest.test_case "classification is the same for the OODB set" `Quick
      (fun () ->
        let c = P2v.Classify.classify oodb in
        Alcotest.(check (list string))
          "physical" [ "tuple_order" ] c.P2v.Classify.physical);
  ]

let merge_tests =
  [
    Alcotest.test_case "relational: 5 T + 6 I -> 2 trans + 4 impl + 1 enforcer"
      `Quick (fun () ->
        let m = P2v.Merge.merge rel in
        check_int "trans" 2 (P2v.Merge.trans_rule_count m);
        check_int "impl" 4 (P2v.Merge.impl_rule_count m);
        check_int "enforcers" 1 (P2v.Merge.enforcer_count m);
        check "composed pair" true
          (List.mem ("sort_intro_merge_join", "jopr_merge_join") m.P2v.Merge.composed);
        check "JOPR dropped" true (List.mem "JOPR" m.P2v.Merge.dropped_operators);
        check "SORT dropped" true (List.mem "SORT" m.P2v.Merge.dropped_operators));
    Alcotest.test_case "the paper's §4.2 arithmetic: 22 T + 11 I -> 17 + 9 + 1"
      `Quick (fun () ->
        let m = P2v.Merge.merge oodb in
        check_int "17 trans" 17 (P2v.Merge.trans_rule_count m);
        check_int "9 impl" 9 (P2v.Merge.impl_rule_count m);
        check_int "1 enforcer" 1 (P2v.Merge.enforcer_count m));
    Alcotest.test_case "composed rule pushes sort requirements" `Quick (fun () ->
        let m = P2v.Merge.merge rel in
        let merged =
          List.find
            (fun (r : Irule.t) -> String.equal (Irule.algorithm r) "Merge_join")
            m.P2v.Merge.impl_irules
        in
        Alcotest.(check string) "operator is JOIN" "JOIN" (Irule.operator merged);
        check_int "both inputs re-descriptored" 2
          (List.length (Irule.redescriptored_inputs merged));
        (* composed names join their parts with '+', not an identifier *)
        let merged = { merged with Irule.name = "merged" } in
        let declared =
          List.filter (fun (n, _) ->
              List.mem n [ Irule.operator merged; Irule.algorithm merged ])
        in
        Alcotest.(check (list string)) "valid I-rule" []
          (Support.rule_text_errors
             (Prairie.Ruleset.make ~properties:rel.Prairie.Ruleset.properties
                ~operators:(declared rel.Prairie.Ruleset.operators)
                ~algorithms:(declared rel.Prairie.Ruleset.algorithms)
                ~irules:[ merged ] ~helpers:rel.Prairie.Ruleset.helpers "merged")));
    Alcotest.test_case "an uncomposed rename attaches its requirements" `Quick
      (fun () ->
        let m = P2v.Merge.merge (fixture "rename_partial.prairie") in
        check "P104 explains the fallback" true
          (List.exists
             (fun (d : Prairie.Diagnostic.t) -> d.Prairie.Diagnostic.code = "P104")
             m.P2v.Merge.warnings);
        check "nothing composed" true (m.P2v.Merge.composed = []);
        check "the renaming stays a trans rule" true
          (List.exists
             (fun (t : Prairie.Trule.t) ->
               t.Prairie.Trule.name = "sort_intro_merge_join")
             m.P2v.Merge.trans_trules);
        check "JOPR is not dropped" false
          (List.mem "JOPR" m.P2v.Merge.dropped_operators);
        (* the T-rule's sort requirements moved onto both JOPR impl rules *)
        Alcotest.(check (list string))
          "JOPR impl rules" [ "jopr_merge_join"; "jopr_nested_loops" ]
          (List.map (fun (r : Irule.t) -> r.Irule.name) (jopr_rules m));
        List.iter
          (fun (r : Irule.t) ->
            check_int (r.Irule.name ^ ": requirements attached") 2
              (List.length (Irule.redescriptored_inputs r)))
          (jopr_rules m));
  ]

let compose_fallback_tests =
  [
    Alcotest.test_case
      "composition falls back when the I-rule test is untraceable" `Quick
      (fun () ->
        (* Make the JOPR rule's test read a property that the renaming
           T-rule reassigns after the copy: the test can then not be
           evaluated at I-rule test time, so P2V must keep the rules
           unmerged (and say so). *)
        let base = Rel.ruleset catalog in
        let poisoned_trule =
          List.map
            (fun (t : Prairie.Trule.t) ->
              if t.Prairie.Trule.name <> "sort_intro_merge_join" then t
              else
                {
                  t with
                  Prairie.Trule.post_test =
                    t.Prairie.Trule.post_test
                    @ [
                        Prairie.Action.Assign_prop
                          ("D6", "num_records", Prairie.Action.int 1);
                      ];
                })
            base.Prairie.Ruleset.trules
        in
        let poisoned_irule =
          List.map
            (fun (r : Prairie.Irule.t) ->
              if r.Prairie.Irule.name <> "jopr_merge_join" then r
              else
                {
                  r with
                  Prairie.Irule.test =
                    Prairie.Action.(
                      Binop
                        ( Cmp Prairie_value.Predicate.Ge,
                          Prop ("D3", "num_records"),
                          int 0 ));
                })
            base.Prairie.Ruleset.irules
        in
        let rs =
          {
            base with
            Prairie.Ruleset.trules = poisoned_trule;
            Prairie.Ruleset.irules = poisoned_irule;
          }
        in
        let m = P2v.Merge.merge rs in
        check "not composed" false
          (List.mem ("sort_intro_merge_join", "jopr_merge_join") m.P2v.Merge.composed);
        check "warned" true (m.P2v.Merge.warnings <> []);
        (* the renaming T-rule survives, as does the JOPR impl rule *)
        check "trans rule kept" true
          (List.exists
             (fun (t : Prairie.Trule.t) ->
               t.Prairie.Trule.name = "sort_intro_merge_join")
             m.P2v.Merge.trans_trules);
        (match jopr_rules m with
        | [ jopr ] ->
          check_int "requirements attached" 2
            (List.length (Irule.redescriptored_inputs jopr))
        | rules -> Alcotest.failf "%d JOPR rules kept" (List.length rules));
        (* and the unmerged translation finds the oracle's best plan *)
        let q =
          Rel.join catalog
            ~pred:(eq_pred (attr "R1" "a") (attr "R2" "a"))
            (Rel.ret catalog "R1") (Rel.ret catalog "R2")
        in
        Alcotest.(check (float 1e-6))
          "volcano cost = naive cost" (naive_cost rs q) (volcano_cost rs q));
  ]
  @ List.map
      (fun (file, what) ->
        Alcotest.test_case what `Quick (fun () ->
            (* verify's P220 witness shape: a 3-way equijoin *)
            let catalog =
              Catalog.of_files
                [
                  Rel.relation ~name:"C1" ~cardinality:8 [ ("a", 3); ("b", 2) ];
                  Rel.relation ~name:"C2" ~cardinality:8 [ ("a", 1) ];
                  Rel.relation ~name:"C3" ~cardinality:3 [ ("b", 2) ];
                ]
            in
            let rs = fixture ~catalog file in
            let q =
              Rel.join catalog
                ~pred:(eq_pred (attr "C1" "b") (attr "C3" "b"))
                (Rel.join catalog
                   ~pred:(eq_pred (attr "C1" "a") (attr "C2" "a"))
                   (Rel.ret catalog "C1") (Rel.ret catalog "C2"))
                (Rel.ret catalog "C3")
            in
            Alcotest.(check (float 1e-6))
              "volcano cost = naive cost" (naive_cost rs q) (volcano_cost rs q)))
      [
        ( "rename_partial.prairie",
          "a partly composable rename keeps its sort requirements" );
        ( "rename_elsewhere.prairie",
          "a rename introduced elsewhere keeps its sort requirements" );
      ]

let translate_tests =
  [
    Alcotest.test_case "translated rule set counts" `Quick (fun () ->
        let tr = P2v.Translate.translate rel in
        let v = tr.P2v.Translate.volcano in
        check_int "trans" 2 (List.length v.Prairie_volcano.Rule.rs_trans);
        check_int "impl" 4 (List.length v.Prairie_volcano.Rule.rs_impl);
        check_int "enforcers" 1 (List.length v.Prairie_volcano.Rule.rs_enforcers);
        Alcotest.(check (list string))
          "physical" [ "tuple_order" ] v.Prairie_volcano.Rule.rs_physical);
    Alcotest.test_case "prepare_query strips a root SORT into requirements"
      `Quick (fun () ->
        let tr = P2v.Translate.translate rel in
        let order = O.sorted_on (attr "R1" "a") in
        let q = Rel.sort catalog ~order (Rel.ret catalog "R1") in
        let stripped, req = P2v.Translate.prepare_query tr q in
        Alcotest.(check string) "RET remains" "RET" (Prairie.Expr.label stripped);
        check "required order" true (O.equal (D.get_order req "tuple_order") order));
    Alcotest.test_case "prepare_query deletes interior SORTs" `Quick (fun () ->
        let tr = P2v.Translate.translate rel in
        let order = O.sorted_on (attr "R1" "a") in
        let q =
          Rel.join catalog
            ~pred:(Prairie_value.Predicate.Cmp
                     (Prairie_value.Predicate.Eq,
                      Prairie_value.Predicate.T_attr (attr "R1" "a"),
                      Prairie_value.Predicate.T_attr (attr "R2" "a")))
            (Rel.sort catalog ~order (Rel.ret catalog "R1"))
            (Rel.ret catalog "R2")
        in
        let stripped, req = P2v.Translate.prepare_query tr q in
        check "no SORT left" false
          (List.mem "SORT" (Prairie.Expr.operators_used stripped));
        check "no root requirement" true (D.is_empty req));
    Alcotest.test_case "enforcer closure behaves like Merge_sort" `Quick
      (fun () ->
        let tr = P2v.Translate.translate rel in
        let en = List.hd tr.P2v.Translate.volcano.Prairie_volcano.Rule.rs_enforcers in
        let order = O.sorted_on (attr "R1" "a") in
        let req = D.of_list [ ("tuple_order", V.Order order) ] in
        check "applies under order" true (en.Prairie_volcano.Rule.en_applies ~req);
        check "not under empty" false
          (en.Prairie_volcano.Rule.en_applies ~req:D.empty);
        check "relaxed drops the order" true
          (D.is_empty (en.Prairie_volcano.Rule.en_relaxed ~req));
        let input = D.of_list [ ("num_records", V.Int 64); ("cost", V.Float 10.0) ] in
        let out = en.Prairie_volcano.Rule.en_finalize ~req ~input in
        check "order achieved" true (O.equal (D.get_order out "tuple_order") order);
        (* 10 + cpu * 64 * log2 64 *)
        Alcotest.(check (float 1e-9))
          "cost" (10.0 +. (0.005 *. 64.0 *. 6.0)) (D.cost out));
    Alcotest.test_case "report carries the paper's numbers" `Quick (fun () ->
        let report = P2v.Report.of_translation (P2v.Translate.translate oodb) in
        check_int "22" 22 report.P2v.Report.prairie_trules;
        check_int "11" 11 report.P2v.Report.prairie_irules;
        check_int "17" 17 report.P2v.Report.volcano_trans;
        check_int "9" 9 report.P2v.Report.volcano_impl;
        check_int "1" 1 report.P2v.Report.volcano_enforcers;
        check "spec smaller than volcano equivalent" true
          (report.P2v.Report.prairie_spec_size < report.P2v.Report.volcano_spec_size
          || report.P2v.Report.prairie_spec_size > 0));
  ]

(* the composed rule set finds the exhaustive oracle's best plans *)
let merge_equivalence_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"composition preserves best plans" ~count:25
         QCheck2.Gen.(0 -- 10_000)
         (fun seed ->
           let rng = Prairie_util.Rng.create seed in
           let catalog =
             Catalog.of_files
               [
                 Rel.relation ~name:"R1"
                   ~cardinality:(Prairie_util.Rng.in_range rng 10 2000)
                   [ ("a", 10); ("b", 20) ];
                 Rel.relation ~name:"R2"
                   ~cardinality:(Prairie_util.Rng.in_range rng 10 2000)
                   [ ("a", 10) ];
               ]
           in
           let rel = Rel.ruleset catalog in
           let q =
             Rel.join catalog
               ~pred:(eq_pred (attr "R1" "a") (attr "R2" "a"))
               (Rel.ret catalog "R1") (Rel.ret catalog "R2")
           in
           Float.abs (volcano_cost rel q -. naive_cost rel q) < 1e-6));
  ]

let suites =
  [
    ("p2v.enforcers", enforcer_tests);
    ("p2v.classify", classify_tests);
    ("p2v.merge", merge_tests);
    ("p2v.compose_fallback", compose_fallback_tests);
    ("p2v.translate", translate_tests);
    ("p2v.merge_equivalence", merge_equivalence_tests);
  ]
