(* The Volcano search engine, checked against the naive oracle. *)

module Search = Prairie_volcano.Search
module Plan = Prairie_volcano.Plan
module Stats = Prairie_volcano.Stats
module Naive = Prairie.Naive
module Expr = Prairie.Expr
module D = Prairie.Descriptor
module V = Prairie_value.Value
module O = Prairie_value.Order
module P = Prairie_value.Predicate
module A = Prairie_value.Attribute
module Rel = Prairie_algebra.Relational
module Catalog = Prairie_catalog.Catalog
module Rng = Prairie_util.Rng

let check = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-6))
let attr o n = A.make ~owner:o ~name:n
let eq a b = P.Cmp (P.Eq, P.T_attr a, P.T_attr b)

(* random small relational catalog + 2-way query *)
let random_setup seed =
  let rng = Rng.create seed in
  let card () = Rng.in_range rng 10 2000 in
  let idx = Rng.bool rng in
  let catalog =
    Catalog.of_files
      [
        Rel.relation ~name:"R1" ~cardinality:(card ())
          ~indexes:(if idx then [ "a" ] else [])
          [ ("a", Rng.in_range rng 2 200); ("b", 50) ];
        Rel.relation ~name:"R2" ~cardinality:(card ()) [ ("a", 100); ("c", 20) ];
      ]
  in
  let pred = eq (attr "R1" "a") (attr "R2" "a") in
  let sel =
    if Rng.bool rng then P.Cmp (P.Eq, P.T_attr (attr "R1" "a"), P.T_int 1)
    else P.True
  in
  let q =
    Rel.join catalog ~pred (Rel.ret ~pred:sel catalog "R1") (Rel.ret catalog "R2")
  in
  (catalog, q)

let volcano_of catalog =
  (Prairie_p2v.Translate.translate (Rel.ruleset catalog)).Prairie_p2v.Translate.volcano

let optimize ?pruning ?(required = D.empty) catalog q =
  let ctx = Search.create ?pruning (volcano_of catalog) in
  (Search.optimize ~required ctx q, ctx)

let basic_tests =
  [
    Alcotest.test_case "finds a plan for a two-way join" `Quick (fun () ->
        let catalog, q = random_setup 1 in
        let plan, _ = optimize catalog q in
        check "some plan" true (plan <> None));
    Alcotest.test_case "memo hits on re-optimization" `Quick (fun () ->
        let catalog, q = random_setup 2 in
        let ctx = Search.create (volcano_of catalog) in
        ignore (Search.optimize ctx q);
        let hits_before = (Search.stats ctx).Stats.memo_hits in
        ignore (Search.optimize ctx q);
        check "more hits" true ((Search.stats ctx).Stats.memo_hits > hits_before));
    Alcotest.test_case "unsatisfiable requirement yields no plan" `Quick
      (fun () ->
        let catalog, q = random_setup 3 in
        (* requiring an order that no enforcer property covers: use a bogus
           physical property name via a descriptor the rule set does not
           know -- restrict_physical drops it, so instead require an order
           on an attribute; this IS satisfiable via Merge_sort, so check
           the opposite: it finds a (more expensive) plan. *)
        let required =
          D.of_list [ ("tuple_order", V.Order (O.sorted_on (attr "R1" "b"))) ]
        in
        let plan, _ = optimize ~required catalog q in
        check "satisfiable via enforcer" true (plan <> None));
    Alcotest.test_case "plan cost equals its descriptor cost" `Quick (fun () ->
        let catalog, q = random_setup 4 in
        match fst (optimize catalog q) with
        | Some p -> checkf "cost" (Plan.cost p) (D.cost (Plan.descriptor p))
        | None -> Alcotest.fail "no plan");
    Alcotest.test_case "group count grows with join count" `Quick (fun () ->
        let catalog =
          Catalog.of_files
            [
              Rel.relation ~name:"R1" ~cardinality:100 [ ("a", 10) ];
              Rel.relation ~name:"R2" ~cardinality:100 [ ("a", 10); ("b", 10) ];
              Rel.relation ~name:"R3" ~cardinality:100 [ ("b", 10) ];
            ]
        in
        let q2 =
          Rel.join catalog ~pred:(eq (attr "R1" "a") (attr "R2" "a"))
            (Rel.ret catalog "R1") (Rel.ret catalog "R2")
        in
        let q3 =
          Rel.join catalog ~pred:(eq (attr "R2" "b") (attr "R3" "b")) q2
            (Rel.ret catalog "R3")
        in
        let _, ctx2 = optimize catalog q2 in
        let _, ctx3 = optimize catalog q3 in
        check "monotone" true (Search.group_count ctx3 > Search.group_count ctx2));
  ]

(* The central soundness property: Volcano's best equals the exhaustive
   oracle's best.  Volcano plans have no Null nodes (enforcer-operators are
   implicit), so costs are compared, not shapes. *)
let oracle_agreement seed =
  let catalog, q = random_setup seed in
  let ruleset = Rel.ruleset catalog in
  let naive = Naive.best_plan ruleset ~required:D.empty q in
  let volcano, _ = optimize catalog q in
  match (naive, volcano) with
  | Some n, Some p -> Float.abs (n.Naive.cost -. Plan.cost p) < 1e-6
  | None, None -> true
  | Some _, None | None, Some _ -> false

let oracle_agreement_ordered seed =
  let catalog, q = random_setup seed in
  let ruleset = Rel.ruleset catalog in
  let required =
    D.of_list [ ("tuple_order", V.Order (O.sorted_on (attr "R1" "b"))) ]
  in
  let naive = Naive.best_plan ruleset ~required q in
  let volcano, _ = optimize ~required catalog q in
  match (naive, volcano) with
  | Some n, Some p -> Float.abs (n.Naive.cost -. Plan.cost p) < 1e-6
  | None, None -> true
  | Some _, None | None, Some _ -> false

let pruning_equivalence seed =
  let catalog, q = random_setup seed in
  let with_p, _ = optimize ~pruning:true catalog q in
  let without_p, _ = optimize ~pruning:false catalog q in
  match (with_p, without_p) with
  | Some a, Some b -> Float.abs (Plan.cost a -. Plan.cost b) < 1e-9
  | None, None -> true
  | Some _, None | None, Some _ -> false

(* The worklist explorer's contract: `Worklist and `Rescan exploration are
   bit-for-bit equivalent — same plan (by canonical fingerprint), same cost,
   same memo shape — on any rule set and query.  The worklist only changes
   which members each fixpoint round re-examines, never which rules fire. *)
module Memo = Prairie_volcano.Memo

let run_exploration ?required catalog q exploration =
  let ctx = Search.create ~exploration (volcano_of catalog) in
  (Search.optimize ?required ctx q, ctx)

let exploration_equivalence ?required seed =
  let catalog, q = random_setup seed in
  let pw, cw = run_exploration ?required catalog q `Worklist in
  let pr, cr = run_exploration ?required catalog q `Rescan in
  Search.group_count cw = Search.group_count cr
  && Memo.lexpr_count (Search.memo cw) = Memo.lexpr_count (Search.memo cr)
  &&
  match (pw, pr) with
  | Some a, Some b ->
    Float.equal (Plan.cost a) (Plan.cost b)
    && String.equal
         (Expr.fingerprint (Plan.to_expr a))
         (Expr.fingerprint (Plan.to_expr b))
  | None, None -> true
  | Some _, None | None, Some _ -> false

let exploration_equivalence_ordered seed =
  let required =
    D.of_list [ ("tuple_order", V.Order (O.sorted_on (attr "R1" "b"))) ]
  in
  exploration_equivalence ~required seed

(* The match index's contract: indexed exploration skips exactly the
   (lexpr, rule) pairs whose match would bind nothing, so every
   observable — matches, applications (by name, not just count), memo
   shape, cost, canonical plan — is byte-identical with the index on or
   off. *)
let match_index_equivalence ?required seed =
  let catalog, q = random_setup seed in
  let run match_index =
    let ctx = Search.create ~match_index (volcano_of catalog) in
    (Search.optimize ?required ctx q, ctx)
  in
  let pi, ci = run true in
  let pf, cf = run false in
  Search.group_count ci = Search.group_count cf
  && Memo.lexpr_count (Search.memo ci) = Memo.lexpr_count (Search.memo cf)
  && Stats.trans_matched_count (Search.stats ci)
     = Stats.trans_matched_count (Search.stats cf)
  && Stats.trans_applied_names (Search.stats ci)
     = Stats.trans_applied_names (Search.stats cf)
  && Stats.impl_applied_names (Search.stats ci)
     = Stats.impl_applied_names (Search.stats cf)
  &&
  match (pi, pf) with
  | Some a, Some b ->
    Float.equal (Plan.cost a) (Plan.cost b)
    && String.equal
         (Expr.fingerprint (Plan.to_expr a))
         (Expr.fingerprint (Plan.to_expr b))
  | None, None -> true
  | Some _, None | None, Some _ -> false

let match_index_equivalence_ordered seed =
  let required =
    D.of_list [ ("tuple_order", V.Order (O.sorted_on (attr "R1" "b"))) ]
  in
  match_index_equivalence ~required seed

let qtest name prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count:40 QCheck2.Gen.(0 -- 10_000) prop)

let property_tests =
  [
    qtest "volcano cost equals the exhaustive oracle" oracle_agreement;
    qtest "volcano cost equals the oracle under a required order"
      oracle_agreement_ordered;
    qtest "branch-and-bound pruning never changes the answer" pruning_equivalence;
    qtest "worklist and rescan exploration are bit-for-bit equivalent"
      (fun seed -> exploration_equivalence seed);
    qtest "worklist equals rescan under a required order"
      exploration_equivalence_ordered;
    qtest "the match index is byte-identical to trying every rule"
      (fun seed -> match_index_equivalence seed);
    qtest "the match index equals the full scan under a required order"
      match_index_equivalence_ordered;
  ]

(* Deterministic coverage for the two search knobs: the group-budget
   degradation path and the pruning toggle. *)

module W = Prairie_workload
module Opt = Prairie_optimizers.Optimizers

let knob_tests =
  [
    Alcotest.test_case "group budget degrades but still yields a plan" `Quick
      (fun () ->
        let inst = W.Queries.instance W.Queries.Q5 ~joins:2 ~seed:101 in
        let opt = Opt.oodb_prairie inst.W.Queries.catalog in
        let expr, required = opt.Opt.prepare inst.W.Queries.expr in
        let budgeted = Search.create ~group_budget:10 opt.Opt.volcano in
        let plan = Search.optimize ~required budgeted expr in
        check "budget was hit" true (Search.budget_was_hit budgeted);
        check "a plan still exists" true (plan <> None);
        (match plan with
        | Some p ->
          check "the plan is executable (a pure access plan)" true
            (Expr.is_access_plan (Plan.to_expr p));
          check "its cost is finite" true (Float.is_finite (Plan.cost p))
        | None -> ());
        let unbudgeted = Search.create opt.Opt.volcano in
        ignore (Search.optimize ~required unbudgeted expr);
        check "the capped memo is no larger than the full search's" true
          (Search.group_count budgeted <= Search.group_count unbudgeted));
    Alcotest.test_case "no budget means budget_was_hit is false" `Quick
      (fun () ->
        let inst = W.Queries.instance W.Queries.Q1 ~joins:2 ~seed:101 in
        let opt = Opt.oodb_prairie inst.W.Queries.catalog in
        let expr, required = opt.Opt.prepare inst.W.Queries.expr in
        let ctx = Search.create opt.Opt.volcano in
        ignore (Search.optimize ~required ctx expr);
        check "not hit" false (Search.budget_was_hit ctx));
    Alcotest.test_case "budgeted cost is no better than the optimum" `Quick
      (fun () ->
        let inst = W.Queries.instance W.Queries.Q5 ~joins:2 ~seed:101 in
        let opt = Opt.oodb_prairie inst.W.Queries.catalog in
        let best = Opt.optimize opt inst.W.Queries.expr in
        let degraded = Opt.optimize ~group_budget:20 opt inst.W.Queries.expr in
        check "optimum <= degraded" true
          (best.Opt.cost <= degraded.Opt.cost +. 1e-9));
    Alcotest.test_case "pruning:false matches pruning:true (relational)" `Quick
      (fun () ->
        List.iter
          (fun seed ->
            let catalog, q = random_setup seed in
            let on, _ = optimize ~pruning:true catalog q in
            let off, _ = optimize ~pruning:false catalog q in
            match (on, off) with
            | Some a, Some b -> checkf "same best cost" (Plan.cost a) (Plan.cost b)
            | None, None -> ()
            | _ -> Alcotest.fail "pruning changed plan existence")
          [ 11; 22; 33; 44; 55 ]);
    Alcotest.test_case "worklist equals rescan on the OODB rule set" `Quick
      (fun () ->
        List.iter
          (fun (q, joins) ->
            let inst = W.Queries.instance q ~joins ~seed:101 in
            let opt = Opt.oodb_prairie inst.W.Queries.catalog in
            let expr, required = opt.Opt.prepare inst.W.Queries.expr in
            let run exploration =
              let ctx = Search.create ~exploration opt.Opt.volcano in
              (Search.optimize ~required ctx expr, ctx)
            in
            let pw, cw = run `Worklist in
            let pr, cr = run `Rescan in
            Alcotest.(check int)
              "same group count" (Search.group_count cr)
              (Search.group_count cw);
            match (pw, pr) with
            | Some a, Some b ->
              checkf "same cost" (Plan.cost a) (Plan.cost b);
              Alcotest.(check string)
                "same plan"
                (Expr.fingerprint (Plan.to_expr b))
                (Expr.fingerprint (Plan.to_expr a))
            | None, None -> ()
            | _ -> Alcotest.fail "exploration mode changed plan existence")
          [ (W.Queries.Q1, 2); (W.Queries.Q3, 1); (W.Queries.Q5, 2) ]);
    Alcotest.test_case "match index equals full scan on the OODB rule set"
      `Quick (fun () ->
        List.iter
          (fun (q, joins) ->
            let inst = W.Queries.instance q ~joins ~seed:101 in
            let opt = Opt.oodb_prairie inst.W.Queries.catalog in
            let expr, required = opt.Opt.prepare inst.W.Queries.expr in
            let run match_index =
              let ctx = Search.create ~match_index opt.Opt.volcano in
              (Search.optimize ~required ctx expr, ctx)
            in
            let pi, ci = run true in
            let pf, cf = run false in
            Alcotest.(check int)
              "same group count" (Search.group_count cf)
              (Search.group_count ci);
            Alcotest.(check (list string))
              "same applied rules"
              (Stats.trans_applied_names (Search.stats cf))
              (Stats.trans_applied_names (Search.stats ci));
            match (pi, pf) with
            | Some a, Some b ->
              checkf "same cost" (Plan.cost a) (Plan.cost b);
              Alcotest.(check string)
                "same plan"
                (Expr.fingerprint (Plan.to_expr b))
                (Expr.fingerprint (Plan.to_expr a))
            | None, None -> ()
            | _ -> Alcotest.fail "match index changed plan existence")
          [ (W.Queries.Q1, 2); (W.Queries.Q3, 1); (W.Queries.Q5, 2) ]);
    Alcotest.test_case "the match index never drops a rule" `Quick (fun () ->
        (* every trans rule must be reachable through the index under its
           own LHS root: the bucket for an operator-rooted rule, the
           wildcard list (served for both stored files and operators with
           no bucket) for a variable-rooted one — with its rs_trans
           position intact, since that id keys the memo's tried table *)
        let module Rule = Prairie_volcano.Rule in
        List.iter
          (fun rs ->
            List.iteri
              (fun i (tr : Rule.trans_rule) ->
                let root = Prairie.Pattern.root_operator tr.Rule.tr_lhs in
                let candidates = Rule.trans_rules_for rs root in
                check
                  (rs.Rule.rs_name ^ "/" ^ tr.Rule.tr_name ^ " indexed")
                  true
                  (List.exists
                     (fun (j, (tr' : Rule.trans_rule)) ->
                       j = i && String.equal tr'.Rule.tr_name tr.Rule.tr_name)
                     candidates))
              rs.Rule.rs_trans)
          [
            volcano_of (fst (random_setup 7));
            (Opt.oodb_prairie
               (W.Queries.instance W.Queries.Q5 ~joins:2 ~seed:101)
                 .W.Queries.catalog)
              .Opt.volcano;
          ]);
    Alcotest.test_case "pruning:false matches pruning:true (OODB Q1/Q3)" `Quick
      (fun () ->
        List.iter
          (fun (q, joins) ->
            let inst = W.Queries.instance q ~joins ~seed:101 in
            let opt = Opt.oodb_prairie inst.W.Queries.catalog in
            let on = Opt.optimize ~pruning:true opt inst.W.Queries.expr in
            let off = Opt.optimize ~pruning:false opt inst.W.Queries.expr in
            checkf "same best cost" on.Opt.cost off.Opt.cost)
          [ (W.Queries.Q1, 2); (W.Queries.Q3, 1) ]);
  ]

let suites =
  [
    ("search.basic", basic_tests);
    ("search.oracle", property_tests);
    ("search.knobs", knob_tests);
  ]
