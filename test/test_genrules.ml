(* The §6 rule generator: declared algebraic properties regenerate the
   hand-written transformation rules. *)

module G = Prairie_genrules.Genrules
module Ruleset = Prairie.Ruleset
module P2v = Prairie_p2v
module Search = Prairie_volcano.Search
module Plan = Prairie_volcano.Plan
module W = Prairie_workload
module Opt = Prairie_optimizers.Optimizers
module Rel = Prairie_algebra.Relational
module Oodb = Prairie_algebra.Oodb
module Catalog = Prairie_catalog.Catalog
module P = Prairie_value.Predicate
module A = Prairie_value.Attribute
module D = Prairie.Descriptor
module V = Prairie_value.Value
module O = Prairie_value.Order

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let attr o n = A.make ~owner:o ~name:n
let eq a b = P.Cmp (P.Eq, P.T_attr a, P.T_attr b)

let catalog =
  Catalog.of_files
    [
      Rel.relation ~name:"R1" ~cardinality:900 ~indexes:[ "a" ] [ ("a", 30); ("b", 10) ];
      Rel.relation ~name:"R2" ~cardinality:400 [ ("a", 30); ("c", 5) ];
      Rel.relation ~name:"R3" ~cardinality:80 [ ("c", 5) ];
    ]

let helpers = Prairie_algebra.Helpers.env catalog

(* generated T-rules + the hand-written relational I-rules *)
let generated_relational () =
  let handwritten = Rel.ruleset catalog in
  G.ruleset ~name:"gen_relational" ~helpers
    ~irules:handwritten.Ruleset.irules G.relational_spec

let run ruleset expr ~required =
  let tr = P2v.Translate.translate ruleset in
  let ctx = Search.create tr.P2v.Translate.volcano in
  match Search.optimize ~required ctx expr with
  | Some p -> (Plan.cost p, Search.group_count ctx)
  | None -> (infinity, Search.group_count ctx)

let three_way () =
  Rel.join catalog
    ~pred:(eq (attr "R2" "c") (attr "R3" "c"))
    (Rel.join catalog
       ~pred:(eq (attr "R1" "a") (attr "R2" "a"))
       (Rel.ret catalog "R1") (Rel.ret catalog "R2"))
    (Rel.ret catalog "R3")

let structure_tests =
  [
    Alcotest.test_case "generated relational set validates" `Quick (fun () ->
        Alcotest.(check (list string)) "valid" []
          (Support.rule_text_errors (generated_relational ())));
    Alcotest.test_case "expected rule inventory" `Quick (fun () ->
        let names =
          List.map (fun (r : Prairie.Trule.t) -> r.Prairie.Trule.name)
            (G.trules G.relational_spec)
        in
        check "commute" true (List.mem "gen_commute_JOIN" names);
        check "assoc both ways" true
          (List.mem "gen_assoc_JOIN_left" names && List.mem "gen_assoc_JOIN_right" names);
        check "intro over RET and JOIN" true
          (List.mem "gen_intro_SORT_RET" names && List.mem "gen_intro_SORT_JOIN" names);
        check_int "five rules" 5 (List.length names));
    Alcotest.test_case "distributed spec reproduces rules/distributed.prairie"
      `Quick (fun () ->
        check "T-rules" true
          (G.trules G.distributed_spec
          = (Prairie_algebra.Distributed.ruleset catalog).Ruleset.trules));
    Alcotest.test_case "oodb fragment inventory" `Quick (fun () ->
        let names =
          List.map (fun (r : Prairie.Trule.t) -> r.Prairie.Trule.name)
            (G.trules G.oodb_select_join_spec)
        in
        check "split family" true
          (List.mem "gen_split_SELECT" names && List.mem "gen_merge_SELECT" names);
        check "pushdown both sides" true
          (List.mem "gen_push_SELECT_JOIN_left" names
          && List.mem "gen_push_SELECT_JOIN_right" names);
        check "absorb" true (List.mem "gen_absorb_SELECT_RET" names);
        (* 3 join rules + 6 select rules + 3 intro rules *)
        check_int "twelve rules" 12 (List.length names));
    Alcotest.test_case "unsupported enforcer arity rejected" `Quick (fun () ->
        check "raises" true
          (try
             ignore
               (G.trules
                  {
                    G.binaries = [];
                    filters = [];
                    enforcers =
                      [ { G.enf_operator = "SORT"; enf_property = "tuple_order"; enf_over = [ ("TERNARY", 3) ] } ];
                  });
             false
           with Invalid_argument _ -> true));
  ]

let equivalence_tests =
  [
    Alcotest.test_case "generated == hand-written on a 3-way join" `Quick
      (fun () ->
        (* The merge-join enabler (JOIN ==> JOPR(SORT, SORT)) encodes
           implementation knowledge no algebraic flag captures, so it is
           not generatable; compare against the hand-written set with that
           one rule removed. *)
        let handwritten = Rel.ruleset catalog in
        let baseline =
          {
            handwritten with
            Ruleset.trules =
              List.filter
                (fun (r : Prairie.Trule.t) ->
                  r.Prairie.Trule.name <> "sort_intro_merge_join")
                handwritten.Ruleset.trules;
          }
        in
        let gen_cost, gen_groups = run (generated_relational ()) (three_way ()) ~required:D.empty in
        let base_cost, base_groups = run baseline (three_way ()) ~required:D.empty in
        Alcotest.(check (float 1e-6)) "cost" base_cost gen_cost;
        check_int "same search space" base_groups gen_groups;
        (* and with the full hand-written set (merge join available) the
           generated set can only be equal or worse *)
        let full_cost, _ = run handwritten (three_way ()) ~required:D.empty in
        check "hand-written at least as good" true (full_cost <= gen_cost +. 1e-9));
    Alcotest.test_case "generated set supports required orders" `Quick
      (fun () ->
        let required =
          D.of_list [ ("tuple_order", V.Order (O.sorted_on (attr "R1" "b"))) ]
        in
        let gen_cost, _ = run (generated_relational ()) (three_way ()) ~required in
        check "finite" true (Float.is_finite gen_cost));
    Alcotest.test_case "generated OODB fragment == hand-written on E3" `Quick
      (fun () ->
        (* on a SELECT-over-joins query the MAT/UNNEST rules are inert, so
           the generated fragment must reach the same optimum *)
        let inst = W.Queries.instance W.Queries.Q6 ~joins:2 ~seed:31 in
        let cat = inst.W.Queries.catalog in
        let handwritten = Oodb.ruleset cat in
        let generated =
          G.ruleset ~name:"gen_oodb" ~helpers:(Prairie_algebra.Helpers.env cat)
            ~irules:handwritten.Ruleset.irules G.oodb_select_join_spec
        in
        let gen_cost, _ = run generated inst.W.Queries.expr ~required:D.empty in
        let r = Opt.optimize (Opt.oodb_prairie cat) inst.W.Queries.expr in
        Alcotest.(check (float 1e-6)) "cost" r.Opt.cost gen_cost);
    Alcotest.test_case "generated rules P2V-merge like hand-written ones"
      `Quick (fun () ->
        let m = P2v.Merge.merge (generated_relational ()) in
        (* the two intro rules vanish; commute + assoc*2 remain *)
        check_int "three trans" 3 (P2v.Merge.trans_rule_count m);
        check_int "one enforcer" 1 (P2v.Merge.enforcer_count m));
  ]

let suites =
  [
    ("genrules.structure", structure_tests);
    ("genrules.equivalence", equivalence_tests);
  ]
