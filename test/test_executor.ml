(* The execution engine: iterator semantics and cross-plan result
   equivalence. *)

module E = Prairie_executor
module Tuple = Prairie_executor.Tuple
module Iterator = Prairie_executor.Iterator
module A = Prairie_value.Attribute
module V = Prairie_value.Value
module P = Prairie_value.Predicate
module SF = Prairie_catalog.Stored_file
module Catalog = Prairie_catalog.Catalog
module W = Prairie_workload
module Opt = Prairie_optimizers.Optimizers

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let attr o n = A.make ~owner:o ~name:n

(* tiny hand-made database *)
let r_schema = [| attr "R" "a"; attr "R" "b" |]

let r_rows =
  [| [| V.Int 1; V.Int 10 |]; [| V.Int 2; V.Int 20 |]; [| V.Int 3; V.Int 10 |] |]

let s_schema = [| attr "S" "a"; attr "S" "c" |]
let s_rows = [| [| V.Int 2; V.Int 7 |]; [| V.Int 3; V.Int 8 |]; [| V.Int 3; V.Int 9 |] |]

let r_file =
  SF.make ~name:"R" ~cardinality:3 [ SF.column "R" "a"; SF.column "R" "b" ]

let s_file =
  SF.make ~name:"S" ~cardinality:3 [ SF.column "S" "a"; SF.column "S" "c" ]

let r_table = { E.Table.file = r_file; schema = r_schema; rows = r_rows }
let s_table = { E.Table.file = s_file; schema = s_schema; rows = s_rows }

let db =
  E.Table.database (Catalog.of_files [ r_file; s_file ]) [ r_table; s_table ]

let count it = Array.length (Iterator.materialize it)
let join_pred = P.Cmp (P.Eq, P.T_attr (attr "R" "a"), P.T_attr (attr "S" "a"))

let tuple_tests =
  [
    Alcotest.test_case "get by attribute" `Quick (fun () ->
        check "found" true (Tuple.get r_schema r_rows.(0) (attr "R" "b") = Some (V.Int 10));
        check "missing" true (Tuple.get r_schema r_rows.(0) (attr "R" "z") = None));
    Alcotest.test_case "eval_pred over a tuple" `Quick (fun () ->
        let p = P.Cmp (P.Eq, P.T_attr (attr "R" "b"), P.T_int 10) in
        check "hit" true (Tuple.eval_pred r_schema p r_rows.(0));
        check "miss" false (Tuple.eval_pred r_schema p r_rows.(1)));
    Alcotest.test_case "project keeps requested order" `Quick (fun () ->
        let t = Tuple.project r_schema [ attr "R" "b" ] r_rows.(0) in
        check "value" true (V.equal t.(0) (V.Int 10));
        check_int "width" 1 (Array.length t));
    Alcotest.test_case "compare_by sorts lexicographically" `Quick (fun () ->
        check "lt" true
          (Tuple.compare_by r_schema [ attr "R" "b"; attr "R" "a" ] r_rows.(0) r_rows.(2) < 0));
    Alcotest.test_case "canonical is column-order independent" `Quick (fun () ->
        let swapped_schema = [| attr "R" "b"; attr "R" "a" |] in
        let swapped = [| V.Int 10; V.Int 1 |] in
        check "equal" true
          (Tuple.canonical r_schema r_rows.(0) = Tuple.canonical swapped_schema swapped));
  ]

let iterator_tests =
  [
    Alcotest.test_case "scan filters by the embedded predicate" `Quick (fun () ->
        let it = Iterator.scan r_table ~pred:(P.Cmp (P.Eq, P.T_attr (attr "R" "b"), P.T_int 10)) in
        check_int "two" 2 (count it));
    Alcotest.test_case "scan is re-openable" `Quick (fun () ->
        let it = Iterator.scan r_table ~pred:P.True in
        check_int "first" 3 (count it);
        check_int "again" 3 (count it));
    Alcotest.test_case "index_scan delivers sorted output" `Quick (fun () ->
        let it = Iterator.index_scan r_table ~pred:P.True ~order:[ attr "R" "b" ] in
        let rows = Iterator.materialize it in
        check "sorted" true
          (V.to_int rows.(0).(1) <= V.to_int rows.(1).(1)
          && V.to_int rows.(1).(1) <= V.to_int rows.(2).(1)));
    Alcotest.test_case "nested loops join" `Quick (fun () ->
        let it =
          Iterator.nested_loops
            (Iterator.scan r_table ~pred:P.True)
            (Iterator.scan s_table ~pred:P.True)
            ~pred:join_pred
        in
        check_int "three matches" 3 (count it));
    Alcotest.test_case "hash join agrees with nested loops" `Quick (fun () ->
        let nl =
          Iterator.nested_loops (Iterator.scan r_table ~pred:P.True)
            (Iterator.scan s_table ~pred:P.True) ~pred:join_pred
        in
        let hj =
          Iterator.hash_join (Iterator.scan r_table ~pred:P.True)
            (Iterator.scan s_table ~pred:P.True) ~pred:join_pred
        in
        check_int "same" (count nl) (count hj));
    Alcotest.test_case "merge join over sorted inputs agrees" `Quick (fun () ->
        let sorted t attrs = Iterator.sort (Iterator.scan t ~pred:P.True) ~order:attrs in
        let mj =
          Iterator.merge_join (sorted r_table [ attr "R" "a" ]) (sorted s_table [ attr "S" "a" ]) ~pred:join_pred
        in
        check_int "three" 3 (count mj));
    Alcotest.test_case "pointer join preserves outer order" `Quick (fun () ->
        let pj =
          Iterator.hash_join (Iterator.scan r_table ~pred:P.True)
            (Iterator.scan s_table ~pred:P.True) ~pred:join_pred
        in
        let rows = Iterator.materialize pj in
        check_int "three" 3 (Array.length rows);
        check "outer order kept" true (V.to_int rows.(0).(0) <= V.to_int rows.(1).(0)));
    Alcotest.test_case "sort orders the stream" `Quick (fun () ->
        let it = Iterator.sort (Iterator.scan s_table ~pred:P.True) ~order:[ attr "S" "c" ] in
        let rows = Iterator.materialize it in
        check "ascending" true (V.to_int rows.(0).(1) <= V.to_int rows.(2).(1)));
    Alcotest.test_case "filter and null" `Quick (fun () ->
        let base = Iterator.scan r_table ~pred:P.True in
        let f = Iterator.filter base ~pred:(P.Cmp (P.Gt, P.T_attr (attr "R" "a"), P.T_int 1)) in
        check_int "two" 2 (count f);
        check_int "null id" 2 (count (Iterator.null f)));
    Alcotest.test_case "unnest expands set-valued attributes" `Quick (fun () ->
        let schema = [| attr "T" "xs" |] in
        let rows = [| [| V.List [ V.Int 1; V.Int 2; V.Int 3 ] |]; [| V.List [ V.Int 9 ] |] |] in
        let it = Iterator.unnest (Iterator.of_array schema rows) ~attr:(attr "T" "xs") in
        check_int "four rows" 4 (count it));
    Alcotest.test_case "mat_deref appends the target columns" `Quick (fun () ->
        (* C(oid, r->S): deref r into S's rows *)
        let c_file =
          SF.make ~name:"C" ~cardinality:2
            [ SF.column "C" "oid"; SF.column ~ref_to:"S" "C" "r" ]
        in
        let c_schema = [| attr "C" "oid"; attr "C" "r" |] in
        let c_rows = [| [| V.Int 0; V.Int 1 |]; [| V.Int 1; V.Int 2 |] |] in
        let c_table = { E.Table.file = c_file; schema = c_schema; rows = c_rows } in
        let db =
          E.Table.database (Catalog.of_files [ c_file; s_file ]) [ c_table; s_table ]
        in
        let it = Iterator.mat_deref db (Iterator.of_array c_schema c_rows) ~attr:(attr "C" "r") in
        let rows = Iterator.materialize it in
        check_int "two rows" 2 (Array.length rows);
        check_int "width 4" 4 (Array.length rows.(0));
        (* row 0 derefs to S row 1 = (3, 8) *)
        check "deref" true (V.equal rows.(0).(2) (V.Int 3)));
  ]

(* ------------------------------------------------------------------ *)
(* end-to-end: optimizer plans return identical results                *)
(* ------------------------------------------------------------------ *)

let plan_equivalence q joins seed =
  let inst = W.Queries.instance q ~joins ~seed in
  let cat = inst.W.Queries.catalog in
  let db = E.Data_gen.database ~seed:(seed * 7) cat in
  let prairie = Opt.oodb_prairie cat in
  let expr, required = prairie.Opt.prepare inst.W.Queries.expr in
  let plans =
    [
      (Opt.optimize prairie inst.W.Queries.expr).Opt.plan;
      (Opt.optimize (Opt.oodb_volcano cat) inst.W.Queries.expr).Opt.plan;
      (Prairie_volcano.Bottom_up.optimize ~required prairie.Opt.volcano expr)
        .Prairie_volcano.Bottom_up.plan;
    ]
  in
  let results =
    List.filter_map
      (Option.map (fun p -> E.Compile.canonical_result (E.Compile.execute_plan db p)))
      plans
  in
  match results with
  | [] -> false
  | first :: rest -> List.for_all (fun r -> r = first) rest

let end_to_end_tests =
  [
    Alcotest.test_case "identical results across optimizer variants (Q1)"
      `Quick (fun () -> check "equal" true (plan_equivalence W.Queries.Q1 2 1));
    Alcotest.test_case "identical results across optimizer variants (Q3, MAT)"
      `Quick (fun () -> check "equal" true (plan_equivalence W.Queries.Q3 2 2));
    Alcotest.test_case "identical results across optimizer variants (Q6, index)"
      `Quick (fun () -> check "equal" true (plan_equivalence W.Queries.Q6 2 3));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"plans of one query always produce one result"
         ~count:10
         QCheck2.Gen.(pair (1 -- 2) (0 -- 1000))
         (fun (joins, seed) -> plan_equivalence W.Queries.Q5 joins seed));
    Alcotest.test_case "executed join matches a reference computation" `Quick
      (fun () ->
        (* join C1 ⋈ C2 along the reference equals a manual nested loop *)
        let inst = W.Queries.instance W.Queries.Q1 ~joins:1 ~seed:11 in
        let cat = inst.W.Queries.catalog in
        let db = E.Data_gen.database ~seed:5 cat in
        let r = Opt.optimize (Opt.oodb_prairie cat) inst.W.Queries.expr in
        let _, rows = E.Compile.execute_plan db (Option.get r.Opt.plan) in
        let c1 = E.Table.find db "C1" and c2 = E.Table.find db "C2" in
        let expected = ref 0 in
        Array.iter
          (fun t1 ->
            Array.iter
              (fun t2 ->
                let lookup a =
                  match Tuple.lookup_term c1.E.Table.schema t1 a with
                  | Some v -> Some v
                  | None -> Tuple.lookup_term c2.E.Table.schema t2 a
                in
                if P.eval ~lookup (W.Catalogs.join_pred 1) then incr expected)
              c2.E.Table.rows)
          c1.E.Table.rows;
        check_int "row count" !expected (List.length rows));
  ]

let datagen_tests =
  [
    Alcotest.test_case "generation is deterministic per seed" `Quick (fun () ->
        let inst = W.Queries.instance W.Queries.Q1 ~joins:1 ~seed:9 in
        let d1 = E.Data_gen.database ~seed:1 inst.W.Queries.catalog in
        let d2 = E.Data_gen.database ~seed:1 inst.W.Queries.catalog in
        let t1 = E.Table.find d1 "C1" and t2 = E.Table.find d2 "C1" in
        check "same rows" true (t1.E.Table.rows = t2.E.Table.rows));
    Alcotest.test_case "cardinalities respected and refs in range" `Quick
      (fun () ->
        let inst = W.Queries.instance W.Queries.Q1 ~joins:1 ~seed:9 in
        let cat = inst.W.Queries.catalog in
        let db = E.Data_gen.database ~seed:2 cat in
        let c1 = E.Table.find db "C1" in
        check_int "card" (Catalog.find_exn cat "C1").SF.cardinality
          (E.Table.row_count c1);
        let c2_card = (Catalog.find_exn cat "C2").SF.cardinality in
        let ref_pos = Option.get (Tuple.position c1.E.Table.schema (attr "C1" "rC1")) in
        check "refs valid" true
          (Array.for_all
             (fun row ->
               let v = V.to_int row.(ref_pos) in
               v >= 0 && v < c2_card)
             c1.E.Table.rows));
  ]

let suites =
  [
    ("executor.tuple", tuple_tests);
    ("executor.iterators", iterator_tests);
    ("executor.end_to_end", end_to_end_tests);
    ("executor.datagen", datagen_tests);
  ]
