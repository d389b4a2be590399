(* The Open OODB optimizer: Prairie-generated vs hand-coded Volcano vs the
   exhaustive oracle, across the paper's workload. *)

module W = Prairie_workload
module Opt = Prairie_optimizers.Optimizers
module Plan = Prairie_volcano.Plan
module Search = Prairie_volcano.Search
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
    Alcotest.test_case "pruning ablation agrees but prunes" `Quick (fun () ->
        let inst = W.Queries.instance W.Queries.Q7 ~joins:2 ~seed:5 in
        let cat = inst.W.Queries.catalog in
        let pruned = Opt.optimize ~pruning:true (Opt.oodb_prairie cat) inst.W.Queries.expr in
        let full = Opt.optimize ~pruning:false (Opt.oodb_prairie cat) inst.W.Queries.expr in
        Alcotest.(check (float 1e-6)) "same cost" pruned.Opt.cost full.Opt.cost);
  ]

let suites =
  [
    ("oodb.equivalence", equivalence_tests);
    ("oodb.oracle", oracle_tests);
    ("oodb.structure", structure_tests);
  ]
