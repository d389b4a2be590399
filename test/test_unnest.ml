(* UNNEST end-to-end: the operator the paper's queries deliberately skipped
   ("it appeared in exactly one trans_rule and one impl_rule").  Both the
   rule and the algorithm must still work. *)

module W = Prairie_workload
module Opt = Prairie_optimizers.Optimizers
module Search = Prairie_volcano.Search
module Plan = Prairie_volcano.Plan
module Naive = Prairie.Naive
module Init = Prairie_algebra.Init
module E = Prairie_executor
module D = Prairie.Descriptor
module V = Prairie_value.Value
module Expr = Prairie.Expr

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let catalog =
  W.Catalogs.make (W.Catalogs.default_spec ~classes:2 ~indexed:false ~seed:77)

(* UNNEST(C1 join C2 [on the reference]) over C1's set-valued attribute *)
let unnest_query () =
  Init.unnest catalog ~attr:(W.Catalogs.set_attr 1)
    (Init.join catalog ~pred:(W.Catalogs.join_pred 1)
       (Init.ret catalog "C1") (Init.ret catalog "C2"))

let tests =
  [
    Alcotest.test_case "catalog exposes the set-valued attribute" `Quick
      (fun () ->
        check "set valued" true
          (Prairie_catalog.Catalog.is_set_valued catalog (W.Catalogs.set_attr 1)));
    Alcotest.test_case "cardinality multiplies by the fanout" `Quick (fun () ->
        let q = unnest_query () in
        let join_card =
          D.get_int (Expr.descriptor (List.hd (Expr.inputs q))) "num_records"
        in
        check_int "3x fanout" (join_card * 3)
          (D.get_int (Expr.descriptor q) "num_records"));
    Alcotest.test_case "optimizers agree on the UNNEST query" `Quick (fun () ->
        let q = unnest_query () in
        let p2v = Opt.optimize (Opt.oodb_prairie catalog) q in
        let hand = Opt.optimize (Opt.oodb_volcano catalog) q in
        Alcotest.(check (float 1e-6)) "p2v = hand" p2v.Opt.cost hand.Opt.cost;
        check_int "same groups"
          (Search.group_count p2v.Opt.search)
          (Search.group_count hand.Opt.search);
        let naive =
          Option.get (Naive.best_plan (Opt.oodb_ruleset catalog) ~required:D.empty q)
        in
        Alcotest.(check (float 1e-6)) "oracle" naive.Naive.cost p2v.Opt.cost);
    Alcotest.test_case "unnest_join_swap enlarges the search space" `Quick
      (fun () ->
        (* the swapped form UNNEST-below-join must appear in the memo: with
           the single UNNEST trans rule disabled the space is smaller *)
        let q = unnest_query () in
        let with_rule = Opt.optimize (Opt.oodb_prairie catalog) q in
        let rs = Opt.oodb_ruleset catalog in
        let without =
          {
            rs with
            Prairie.Ruleset.trules =
              List.filter
                (fun (r : Prairie.Trule.t) ->
                  r.Prairie.Trule.name <> "unnest_join_swap")
                rs.Prairie.Ruleset.trules;
          }
        in
        let tr = Prairie_p2v.Translate.translate without in
        let ctx = Search.create tr.Prairie_p2v.Translate.volcano in
        ignore (Search.optimize ctx q);
        check "swap adds alternatives" true
          (Search.group_count with_rule.Opt.search > Search.group_count ctx));
    Alcotest.test_case "executed UNNEST expands set values" `Quick (fun () ->
        let q = unnest_query () in
        let r = Opt.optimize (Opt.oodb_prairie catalog) q in
        let db = E.Data_gen.database ~seed:5 catalog in
        let schema, rows = E.Compile.execute_plan db (Option.get r.Opt.plan) in
        (* every C1 row joins exactly one C2 row (reference equality), and
           each match expands to 3 set elements *)
        let c1 = E.Table.find db "C1" in
        check_int "3 per C1 row" (3 * E.Table.row_count c1) (List.length rows);
        (* the set column now holds scalars *)
        let pos = Option.get (E.Tuple.position schema (W.Catalogs.set_attr 1)) in
        check "scalars" true
          (List.for_all
             (fun row -> match row.(pos) with V.Int _ -> true | _ -> false)
             rows));
    Alcotest.test_case "executed plans agree regardless of UNNEST placement"
      `Quick (fun () ->
        let q = unnest_query () in
        let db = E.Data_gen.database ~seed:5 catalog in
        let run (o : Opt.outcome) =
          E.Compile.canonical_result (E.Compile.execute_plan db (Option.get o.Opt.plan))
        in
        let a = run (Opt.optimize (Opt.oodb_prairie catalog) q) in
        let b = run (Opt.optimize (Opt.oodb_volcano catalog) q) in
        check "same result" true (a = b));
  ]

let suites = [ ("unnest", tests) ]
