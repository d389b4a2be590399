(* The Open OODB optimizer: Prairie-generated vs hand-coded Volcano vs the
   exhaustive oracle, across the paper's workload. *)

module W = Prairie_workload
module Opt = Prairie_optimizers.Optimizers
module Plan = Prairie_volcano.Plan
module Search = Prairie_volcano.Search
module Stats = Prairie_volcano.Stats
module Memo = Prairie_volcano.Memo
module Naive = Prairie.Naive
module D = Prairie.Descriptor

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let agreement q joins seed =
  let inst = W.Queries.instance q ~joins ~seed in
  let cat = inst.W.Queries.catalog in
  let r1 = Opt.optimize (Opt.oodb_prairie cat) inst.W.Queries.expr in
  let r2 = Opt.optimize (Opt.oodb_volcano cat) inst.W.Queries.expr in
  let costs_eq = Float.abs (r1.Opt.cost -. r2.Opt.cost) < 1e-6 in
  let groups_eq =
    Search.group_count r1.Opt.search = Search.group_count r2.Opt.search
  in
  (costs_eq, groups_eq)

let equivalence_tests =
  List.concat_map
    (fun q ->
      List.map
        (fun joins ->
          Alcotest.test_case
            (Printf.sprintf "%s with %d joins: P2V == hand-coded" (W.Queries.name q) joins)
            `Quick
            (fun () ->
              List.iter
                (fun seed ->
                  let costs_eq, groups_eq = agreement q joins seed in
                  check "equal costs" true costs_eq;
                  check "equal search spaces" true groups_eq)
                [ 11; 23 ]))
        [ 1; 2 ])
    W.Queries.all

(* The P2V-generated optimizer finds the exhaustive oracle's cost. *)
let oracle_case name q seeds =
  Alcotest.test_case name `Slow (fun () ->
      List.iter
        (fun seed ->
          let inst = W.Queries.instance q ~joins:1 ~seed in
          let cat = inst.W.Queries.catalog in
          let ruleset = Opt.oodb_ruleset cat in
          let naive =
            Option.get (Naive.best_plan ruleset ~required:D.empty inst.W.Queries.expr)
          in
          let r = Opt.optimize (Opt.oodb_prairie cat) inst.W.Queries.expr in
          Alcotest.(check (float 1e-6)) "cost" naive.Naive.cost r.Opt.cost)
        seeds)

let oracle_tests =
  [
    oracle_case "oracle agreement on E1 (1 join)" W.Queries.Q1 [ 5; 6; 7 ];
    oracle_case "oracle agreement on E3 (1 join, with index)" W.Queries.Q6 [ 5; 9 ];
    oracle_case "oracle agreement on E2 (1 join, MAT)" W.Queries.Q3 [ 13 ];
    oracle_case "Q5 oracle agreement (E3, 1 join)" W.Queries.Q5 [ 4 ];
  ]

let structure_tests =
  [
    Alcotest.test_case "every produced plan is executable algebra" `Quick
      (fun () ->
        List.iter
          (fun q ->
            let inst = W.Queries.instance q ~joins:2 ~seed:3 in
            let r =
              Opt.optimize (Opt.oodb_prairie inst.W.Queries.catalog) inst.W.Queries.expr
            in
            match r.Opt.plan with
            | None -> Alcotest.fail "no plan"
            | Some p ->
              let known =
                [
                  "File_scan"; "Index_scan"; "Hash_join"; "Pointer_join";
                  "Filter"; "Project_alg"; "Mat_deref"; "Unnest_scan";
                  "Merge_sort";
                ]
              in
              check "algorithms known" true
                (List.for_all (fun a -> List.mem a known) (Plan.algorithms p)))
          W.Queries.all);
    Alcotest.test_case "selection queries are cheaper than their E1 base"
      `Quick (fun () ->
        (* pushing the selection down must not make the plan more expensive
           than the unselected join *)
        let i1 = W.Queries.instance W.Queries.Q1 ~joins:2 ~seed:21 in
        let i5 = W.Queries.instance W.Queries.Q5 ~joins:2 ~seed:21 in
        let r1 = Opt.optimize (Opt.oodb_prairie i1.W.Queries.catalog) i1.W.Queries.expr in
        let r5 = Opt.optimize (Opt.oodb_prairie i5.W.Queries.catalog) i5.W.Queries.expr in
        check "select cheaper" true (r5.Opt.cost <= r1.Opt.cost +. 1e-9));
    Alcotest.test_case "indexes help the selection queries" `Quick (fun () ->
        (* same seed, same cardinalities; only the index differs (Q5 vs Q6) *)
        let q5 = W.Queries.instance W.Queries.Q5 ~joins:1 ~seed:33 in
        let q6 = W.Queries.instance W.Queries.Q6 ~joins:1 ~seed:33 in
        let r5 = Opt.optimize (Opt.oodb_prairie q5.W.Queries.catalog) q5.W.Queries.expr in
        let r6 = Opt.optimize (Opt.oodb_prairie q6.W.Queries.catalog) q6.W.Queries.expr in
        check "indexed no more expensive" true (r6.Opt.cost <= r5.Opt.cost +. 1e-9);
        match r6.Opt.plan with
        | Some p -> check "index scan appears" true (List.mem "Index_scan" (Plan.algorithms p))
        | None -> Alcotest.fail "no plan");
    Alcotest.test_case "indexes are irrelevant to E1 (paper Fig 10)" `Quick
      (fun () ->
        let q1 = W.Queries.instance W.Queries.Q1 ~joins:2 ~seed:8 in
        let q2 = W.Queries.instance W.Queries.Q2 ~joins:2 ~seed:8 in
        let r1 = Opt.optimize (Opt.oodb_prairie q1.W.Queries.catalog) q1.W.Queries.expr in
        let r2 = Opt.optimize (Opt.oodb_prairie q2.W.Queries.catalog) q2.W.Queries.expr in
        Alcotest.(check (float 1e-9)) "same cost" r1.Opt.cost r2.Opt.cost;
        check_int "same groups"
          (Search.group_count r1.Opt.search)
          (Search.group_count r2.Opt.search));
    Alcotest.test_case "search space ordering E1 <= E2 <= E4 (Fig 14)" `Quick
      (fun () ->
        let groups q =
          let inst = W.Queries.instance q ~joins:2 ~seed:2 in
          let r = Opt.optimize (Opt.oodb_prairie inst.W.Queries.catalog) inst.W.Queries.expr in
          Search.group_count r.Opt.search
        in
        let g1 = groups W.Queries.Q1
        and g3 = groups W.Queries.Q3
        and g7 = groups W.Queries.Q7 in
        check "E1 < E2" true (g1 < g3);
        check "E2 < E4" true (g3 < g7));
    Alcotest.test_case "pruning agrees with bottom-up but prunes" `Quick
      (fun () ->
        let inst = W.Queries.instance W.Queries.Q7 ~joins:2 ~seed:5 in
        let opt = Opt.oodb_prairie inst.W.Queries.catalog in
        let pruned = Opt.optimize opt inst.W.Queries.expr in
        let expr, required = opt.Opt.prepare inst.W.Queries.expr in
        let full = Prairie_volcano.Bottom_up.optimize ~required opt.Opt.volcano expr in
        (match full.Prairie_volcano.Bottom_up.plan with
        | Some p -> Alcotest.(check (float 1e-6)) "same cost" pruned.Opt.cost (Plan.cost p)
        | None -> Alcotest.fail "bottom-up found no plan");
        check "the search pruned" true ((Search.stats pruned.Opt.search).Stats.pruned > 0));
  ]

(* The paper's evaluation rows (Table 5, Figures 10-14), pinned exactly:
   every count must be equal and every cost equal to the bit.  Figures
   10-13 read catalog 505, the last of the harness's five catalogs, whose
   groups and costs `bench/` prints; Table 5 and Figure 14 read catalog
   101. *)

let bits =
  Alcotest.testable
    (fun ppf f -> Format.fprintf ppf "%.17g" f)
    (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))

let paper_run q ~joins ~seed =
  let inst = W.Queries.instance q ~joins ~seed in
  Opt.optimize (Opt.oodb_prairie inst.W.Queries.catalog) inst.W.Queries.expr

let table5_rows =
  (* query, trans matched, impl matched, trans applied, impl applied, cost *)
  W.Queries.
    [
      (Q1, 3, 4, 3, 3, 142.90585937499998);
      (Q2, 3, 4, 3, 3, 142.90585937499998);
      (Q3, 8, 6, 8, 5, 561.70585937499993);
      (Q4, 8, 6, 8, 5, 561.70585937499993);
      (Q5, 9, 5, 9, 4, 118.60585937499999);
      (Q6, 9, 5, 9, 5, 26.324999999999999);
      (Q7, 15, 7, 15, 6, 119.05585937500001);
      (Q8, 15, 7, 15, 7, 26.774999999999995);
    ]

let figure_rows =
  (* query, joins, groups, lexprs, memo hits, cost *)
  W.Queries.
    [
      ("fig10", [
        (Q1, 1, 5, 6, 6, 101.01890625);
        (Q1, 2, 9, 14, 27, 124.434921875);
        (Q1, 3, 14, 28, 71, 165.13609374999999);
        (Q1, 4, 20, 50, 146, 198.33726562499999);
        (Q1, 5, 27, 82, 260, 235.66929687499999);
        (Q1, 6, 35, 126, 421, 258.00078124999999);
        (Q2, 1, 5, 6, 6, 101.01890625);
        (Q2, 2, 9, 14, 27, 124.434921875);
        (Q2, 3, 14, 28, 71, 165.13609374999999);
        (Q2, 4, 20, 50, 146, 198.33726562499999);
        (Q2, 5, 27, 82, 260, 235.66929687499999);
        (Q2, 6, 35, 126, 421, 258.00078124999999);
      ]);
      ("fig11", [
        (Q3, 1, 10, 18, 37, 478.1189062499999);
        (Q3, 2, 25, 77, 217, 572.7849218749999);
        (Q3, 3, 56, 264, 825, 684.7360937499999);
        (Q3, 4, 119, 787, 2573, 789.1872656249999);
        (Q4, 1, 10, 18, 37, 478.1189062499999);
        (Q4, 2, 25, 77, 217, 572.7849218749999);
        (Q4, 3, 56, 264, 825, 684.7360937499999);
        (Q4, 4, 119, 787, 2573, 789.1872656249999);
      ]);
      ("fig12", [
        (Q5, 1, 10, 21, 34, 76.018906250000001);
        (Q5, 2, 26, 96, 226, 89.874921874999998);
        (Q5, 3, 63, 393, 1249, 121.09609374999999);
        (Q6, 1, 10, 21, 28, 17.09);
        (Q6, 2, 26, 96, 213, 21.404999999999998);
        (Q6, 3, 63, 393, 1142, 28.749999999999996);
      ]);
      ("fig13", [
        (Q7, 1, 26, 82, 169, 76.318906250000012);
        (Q7, 2, 114, 794, 2473, 90.324921875000001);
        (Q7, 3, 464, 5487, 22504, 121.69609375);
        (Q8, 1, 26, 82, 210, 17.389999999999997);
        (Q8, 2, 114, 794, 3251, 21.854999999999993);
        (Q8, 3, 464, 5487, 35372, 29.349999999999991);
      ]);
    ]

let fig14_rows =
  (* query, joins, groups, lexprs *)
  W.Queries.
    [
      (Q1, 1, 5, 6); (Q1, 2, 9, 14); (Q1, 3, 14, 28); (Q1, 4, 20, 50);
      (Q1, 5, 27, 82); (Q1, 6, 35, 126);
      (Q3, 1, 10, 18); (Q3, 2, 25, 77); (Q3, 3, 56, 264); (Q3, 4, 119, 787);
      (Q5, 1, 10, 21); (Q5, 2, 26, 96); (Q5, 3, 63, 403);
      (Q7, 1, 27, 97); (Q7, 2, 116, 893); (Q7, 3, 470, 6413);
    ]

let paper_row_tests =
  let table5 () =
    List.iter
      (fun (q, tm, im, ta, ia, cost) ->
        let r = paper_run q ~joins:2 ~seed:101 in
        let st = Search.stats r.Opt.search in
        let at what = Printf.sprintf "%s %s" (W.Queries.name q) what in
        check_int (at "trans matched") tm (Stats.trans_matched_count st);
        check_int (at "impl matched") im (Stats.impl_matched_count st);
        check_int (at "trans applied") ta (Stats.trans_applied_count st);
        check_int (at "impl applied") ia (Stats.impl_applied_count st);
        Alcotest.check bits (at "cost") cost r.Opt.cost)
      table5_rows
  in
  let figure rows () =
    List.iter
      (fun (q, joins, groups, lexprs, hits, cost) ->
        let r = paper_run q ~joins ~seed:505 in
        let at what = Printf.sprintf "%s@%d %s" (W.Queries.name q) joins what in
        check_int (at "groups") groups (Search.group_count r.Opt.search);
        check_int (at "lexprs") lexprs (Memo.lexpr_count (Search.memo r.Opt.search));
        check_int (at "memo hits") hits (Search.stats r.Opt.search).Stats.memo_hits;
        Alcotest.check bits (at "cost") cost r.Opt.cost)
      rows
  in
  let fig14 () =
    List.iter
      (fun (q, joins, groups, lexprs) ->
        let r = paper_run q ~joins ~seed:101 in
        let at what = Printf.sprintf "%s@%d %s" (W.Queries.name q) joins what in
        check_int (at "groups") groups (Search.group_count r.Opt.search);
        check_int (at "lexprs") lexprs (Memo.lexpr_count (Search.memo r.Opt.search)))
      fig14_rows
  in
  (Alcotest.test_case "table5: Q1-Q8, 2 joins, catalog 101" `Quick table5
  :: List.map
       (fun (fig, rows) ->
         Alcotest.test_case (fig ^ ": catalog 505") `Quick (figure rows))
       figure_rows)
  @ [ Alcotest.test_case "fig14: catalog 101" `Quick fig14 ]

let suites =
  [
    ("oodb.equivalence", equivalence_tests);
    ("oodb.oracle", oracle_tests);
    ("oodb.structure", structure_tests);
    ("oodb.paper_rows", paper_row_tests);
  ]
