(* Combining rule sets (paper §6 future work): the relational and OODB
   optimizers merged into one. *)

module Ruleset = Prairie.Ruleset
module W = Prairie_workload
module Opt = Prairie_optimizers.Optimizers
module P2v = Prairie_p2v
module Search = Prairie_volcano.Search
module Plan = Prairie_volcano.Plan
module D = Prairie.Descriptor
module Rel = Prairie_algebra.Relational
module Oodb = Prairie_algebra.Oodb

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let catalog =
  W.Catalogs.make (W.Catalogs.default_spec ~classes:3 ~indexed:true ~seed:21)

let combined () =
  Ruleset.combine ~name:"combined" (Oodb.ruleset catalog) (Rel.ruleset catalog)

let run ruleset expr =
  let tr = P2v.Translate.translate ruleset in
  let ctx = Search.create tr.P2v.Translate.volcano in
  let expr, required = P2v.Translate.prepare_query tr expr in
  match Search.optimize ~required ctx expr with
  | Some p -> Plan.cost p
  | None -> infinity

let basic_tests =
  [
    Alcotest.test_case "combined set validates" `Quick (fun () ->
        Alcotest.(check (list string)) "valid" [] (Support.rule_text_errors (combined ())));
    Alcotest.test_case "rule and vocabulary counts union" `Quick (fun () ->
        let c = combined () in
        let oodb = Oodb.ruleset catalog and rel = Rel.ruleset catalog in
        (* shared rules (join_commute, sort_merge_sort, sort_null, the
           sort-intro rules over shared operators) are deduplicated *)
        check "trules at most sum" true
          (Ruleset.trule_count c
          <= Ruleset.trule_count oodb + Ruleset.trule_count rel);
        check "has OODB ops" true (List.mem_assoc "MAT" c.Ruleset.operators);
        check "has relational-only op" true (List.mem_assoc "JOPR" c.Ruleset.operators);
        check "has both algorithm families" true
          (List.mem_assoc "Hash_join" c.Ruleset.algorithms
          && List.mem_assoc "Nested_loops" c.Ruleset.algorithms));
    Alcotest.test_case "duplicate rules deduplicate, conflicts reject" `Quick
      (fun () ->
        let oodb = Oodb.ruleset catalog in
        let self = Ruleset.combine ~name:"self" oodb oodb in
        check_int "self-combine is identity on counts"
          (Ruleset.trule_count oodb) (Ruleset.trule_count self);
        (* a conflicting property type must be rejected *)
        let clash =
          Ruleset.make
            ~properties:[ Prairie.Property.declare "num_records" Prairie_value.Value.T_float ]
            "clash"
        in
        check "type clash raises" true
          (try
             ignore (Ruleset.combine ~name:"x" oodb clash);
             false
           with Invalid_argument _ -> true);
        (* so must an operation declared with two arities *)
        let join arity = Ruleset.make ~operators:[ ("JOIN", arity) ] "j" in
        check "arity clash raises" true
          (try
             ignore (Ruleset.combine ~name:"x" (join 2) (join 3));
             false
           with Invalid_argument _ -> true);
        check "one arity is one declaration" true
          ((Ruleset.combine ~name:"x" (join 2) (join 2)).Ruleset.operators
          = [ ("JOIN", 2) ]));
    Alcotest.test_case "combining never makes plans worse" `Quick (fun () ->
        (* the combined optimizer has every algorithm of both sets, so its
           optimum can only improve *)
        List.iter
          (fun q ->
            let inst = W.Queries.instance q ~joins:2 ~seed:21 in
            let alone = run (Oodb.ruleset inst.W.Queries.catalog) inst.W.Queries.expr in
            let together =
              run
                (Ruleset.combine ~name:"combined"
                   (Oodb.ruleset inst.W.Queries.catalog)
                   (Rel.ruleset inst.W.Queries.catalog))
                inst.W.Queries.expr
            in
            check "no worse" true (together <= alone +. 1e-9))
          [ W.Queries.Q1; W.Queries.Q5 ]);
    Alcotest.test_case "combined set gains cross-family algorithms" `Quick
      (fun () ->
        (* an OODB join query optimized by the combined set may now also use
           Nested_loops / Merge_join; at minimum, they are considered *)
        let inst = W.Queries.instance W.Queries.Q1 ~joins:1 ~seed:21 in
        let c =
          Ruleset.combine ~name:"combined"
            (Oodb.ruleset inst.W.Queries.catalog)
            (Rel.ruleset inst.W.Queries.catalog)
        in
        let tr = P2v.Translate.translate c in
        let ctx = Search.create tr.P2v.Translate.volcano in
        ignore (Search.optimize ctx inst.W.Queries.expr);
        let st = Search.stats ctx in
        check "nested loops considered" true
          (List.mem_assoc "join_nested_loops"
             (Prairie_volcano.Stats.impl_accounts st)));
  ]

let suites = [ ("combine", basic_tests) ]
