(* The distributed (R*-style) rule set: a second physical property. *)

module Dist = Prairie_algebra.Distributed
module P2v = Prairie_p2v
module Search = Prairie_volcano.Search
module Plan = Prairie_volcano.Plan
module Naive = Prairie.Naive
module Rel = Prairie_algebra.Relational
module Catalog = Prairie_catalog.Catalog
module D = Prairie.Descriptor
module V = Prairie_value.Value
module A = Prairie_value.Attribute
module P = Prairie_value.Predicate
module Irule = Prairie.Irule

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let attr o n = A.make ~owner:o ~name:n
let eq a b = P.Cmp (P.Eq, P.T_attr a, P.T_attr b)

let catalog =
  Catalog.of_files
    [
      Rel.relation ~name:"R1" ~cardinality:5000 ~tuple_size:100 [ ("a", 50) ];
      Rel.relation ~name:"R2" ~cardinality:200 ~tuple_size:100 [ ("a", 50) ];
      Rel.relation ~name:"R3" ~cardinality:100 ~tuple_size:100 [ ("a", 50) ];
    ]

let sites = [ ("R1", "paris"); ("R2", "austin"); ("R3", "austin") ]
let ruleset = Dist.ruleset catalog
let translation = P2v.Translate.translate ruleset

let optimizer =
  {
    Prairie_optimizers.Optimizers.name = "distributed";
    volcano = translation.P2v.Translate.volcano;
    prepare = P2v.Translate.prepare_query translation;
  }

let two_way () =
  Dist.join catalog
    ~pred:(eq (attr "R1" "a") (attr "R2" "a"))
    (Dist.ret ~sites catalog "R1")
    (Dist.ret ~sites catalog "R2")

let optimize ?required expr =
  Prairie_optimizers.Optimizers.optimize ?required optimizer expr

let classification_tests =
  [
    Alcotest.test_case "site is classified physical automatically" `Quick
      (fun () ->
        let c = P2v.Classify.classify ruleset in
        check "site physical" true (List.mem "site" c.P2v.Classify.physical);
        check "tuple_order not (unused here)" false
          (List.mem "tuple_order" c.P2v.Classify.physical));
    Alcotest.test_case "SHIP detected as the enforcer-operator" `Quick
      (fun () ->
        let infos = P2v.Enforcers.detect ruleset in
        check_int "one" 1 (List.length infos);
        let info = List.hd infos in
        Alcotest.(check string) "op" "SHIP" info.P2v.Enforcers.operator;
        Alcotest.(check (list string))
          "enforces site" [ "site" ] info.P2v.Enforcers.enforced_properties;
        Alcotest.(check (list string))
          "Ship is the enforcer" [ "Ship" ]
          (List.map Irule.algorithm info.P2v.Enforcers.algorithm_rules));
    Alcotest.test_case "merge drops the generated SHIP-intro rules" `Quick
      (fun () ->
        let m = P2v.Merge.merge ruleset in
        check_int "3 trans (commute + assoc both ways)" 3
          (P2v.Merge.trans_rule_count m);
        check_int "4 impl" 4 (P2v.Merge.impl_rule_count m);
        check_int "1 enforcer" 1 (P2v.Merge.enforcer_count m));
    Alcotest.test_case "rule set validates" `Quick (fun () ->
        Alcotest.(check (list string)) "valid" [] (Support.rule_text_errors ruleset));
  ]

let planning_tests =
  [
    Alcotest.test_case "co-located join needs no shipping" `Quick (fun () ->
        let q =
          Dist.join catalog
            ~pred:(eq (attr "R2" "a") (attr "R3" "a"))
            (Dist.ret ~sites catalog "R2")
            (Dist.ret ~sites catalog "R3")
        in
        let r = optimize q in
        match r.Prairie_optimizers.Optimizers.plan with
        | Some p ->
          check "no Ship" false (List.mem "Ship" (Plan.algorithms p));
          Alcotest.(check string)
            "result in austin" "austin"
            (V.to_string_value (D.get (Plan.descriptor p) "site"))
        | None -> Alcotest.fail "no plan");
    Alcotest.test_case "cross-site join ships the smaller stream" `Quick
      (fun () ->
        (* R1 (5000 rows, paris) join R2 (200 rows, austin): shipping R2 to
           paris is far cheaper than shipping R1 to austin *)
        let r = optimize (two_way ()) in
        match r.Prairie_optimizers.Optimizers.plan with
        | Some p ->
          check "ships" true (List.mem "Ship" (Plan.algorithms p));
          Alcotest.(check string)
            "executes in paris" "paris"
            (V.to_string_value (D.get (Plan.descriptor p) "site"))
        | None -> Alcotest.fail "no plan");
    Alcotest.test_case "a required result site is honored" `Quick (fun () ->
        let required = Dist.require_site "austin" in
        let r = optimize ~required (two_way ()) in
        match r.Prairie_optimizers.Optimizers.plan with
        | Some p ->
          Alcotest.(check string)
            "austin" "austin"
            (V.to_string_value (D.get (Plan.descriptor p) "site"));
          (* more expensive than the unconstrained optimum *)
          let free = optimize (two_way ()) in
          check "constraint costs" true
            (r.Prairie_optimizers.Optimizers.cost
            >= free.Prairie_optimizers.Optimizers.cost -. 1e-9)
        | None -> Alcotest.fail "no plan");
    Alcotest.test_case "requiring an unknown site still works via Ship" `Quick
      (fun () ->
        let required = Dist.require_site "tokyo" in
        let r = optimize ~required (two_way ()) in
        match r.Prairie_optimizers.Optimizers.plan with
        | Some p ->
          check "ships to tokyo" true (List.mem "Ship" (Plan.algorithms p));
          Alcotest.(check string)
            "tokyo" "tokyo"
            (V.to_string_value (D.get (Plan.descriptor p) "site"))
        | None -> Alcotest.fail "no plan");
    Alcotest.test_case "volcano agrees with the exhaustive oracle" `Quick
      (fun () ->
        List.iter
          (fun required ->
            let naive = Naive.best_plan ruleset ~required (two_way ()) in
            let vol = optimize ~required (two_way ()) in
            match naive with
            | Some n ->
              Alcotest.(check (float 1e-6))
                "cost" n.Naive.cost vol.Prairie_optimizers.Optimizers.cost
            | None -> Alcotest.fail "oracle found no plan")
          [ D.empty; Dist.require_site "austin"; Dist.require_site "paris" ]);
    Alcotest.test_case "bottom-up strategy handles site requirements" `Quick
      (fun () ->
        let required = Dist.require_site "austin" in
        let top = optimize ~required (two_way ()) in
        let bu =
          Prairie_volcano.Bottom_up.optimize ~required optimizer.Prairie_optimizers.Optimizers.volcano
            (two_way ())
        in
        match bu.Prairie_volcano.Bottom_up.plan with
        | Some p ->
          Alcotest.(check (float 1e-6))
            "cost" top.Prairie_optimizers.Optimizers.cost (Plan.cost p)
        | None -> Alcotest.fail "no bottom-up plan");
    Alcotest.test_case "three-way join across sites plans sensibly" `Quick
      (fun () ->
        let q =
          Dist.join catalog
            ~pred:(eq (attr "R2" "a") (attr "R3" "a"))
            (two_way ())
            (Dist.ret ~sites catalog "R3")
        in
        let r = optimize q in
        check "plan found" true (r.Prairie_optimizers.Optimizers.plan <> None);
        match r.Prairie_optimizers.Optimizers.plan with
        | Some p ->
          check "hash joins used" true (List.mem "Hash_join" (Plan.algorithms p))
        | None -> ());
  ]

let suites =
  [
    ("distributed.p2v", classification_tests);
    ("distributed.planning", planning_tests);
  ]
