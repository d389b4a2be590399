(* The algebra helper functions and the cost model. *)

module H = Prairie.Helper_env
module F = Prairie_algebra.Helpers.F
module CM = Prairie_algebra.Cost_model
module V = Prairie_value.Value
module A = Prairie_value.Attribute
module P = Prairie_value.Predicate
module O = Prairie_value.Order
module SF = Prairie_catalog.Stored_file
module Catalog = Prairie_catalog.Catalog

let check = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-9))
let attr o n = A.make ~owner:o ~name:n

let catalog =
  Catalog.of_files
    [
      SF.make ~name:"C1" ~cardinality:100
        [
          SF.column ~distinct:100 "C1" "oid";
          SF.column ~distinct:10 ~ref_to:"C2" "C1" "r";
          SF.column ~distinct:8 ~set_valued:true "C1" "kids";
        ];
      SF.make ~name:"C2" ~cardinality:40 ~tuple_size:64
        [ SF.column ~distinct:40 "C2" "oid"; SF.column ~distinct:5 "C2" "x" ];
    ]

let env = Prairie_algebra.Helpers.env catalog
let call = H.call env
let eq a b = P.Cmp (P.Eq, P.T_attr a, P.T_attr b)

let fn_tests =
  [
    Alcotest.test_case "union_attrs sorts and deduplicates" `Quick (fun () ->
        let u = F.union_attrs [ attr "B" "x"; attr "A" "y" ] [ attr "A" "y"; attr "A" "a" ] in
        Alcotest.(check (list string))
          "sorted unique" [ "A.a"; "A.y"; "B.x" ]
          (List.map A.to_string u));
    Alcotest.test_case "canonical_and is order-insensitive" `Quick (fun () ->
        let p1 = P.Cmp (P.Eq, P.T_attr (attr "C1" "oid"), P.T_int 1) in
        let p2 = P.Cmp (P.Eq, P.T_attr (attr "C2" "x"), P.T_int 2) in
        check "commutes" true
          (P.equal (F.canonical_and p1 p2) (F.canonical_and p2 p1)));
    Alcotest.test_case "join orders pick the matching side" `Quick (fun () ->
        let pred = eq (attr "C1" "r") (attr "C2" "oid") in
        check "lhs" true
          (O.equal
             (F.join_order pred [ attr "C1" "r"; attr "C1" "oid" ])
             (O.sorted_on (attr "C1" "r")));
        check "rhs" true
          (O.equal
             (F.join_order pred [ attr "C2" "oid"; attr "C2" "x" ])
             (O.sorted_on (attr "C2" "oid"))));
    Alcotest.test_case "is_ref_join follows catalog references" `Quick (fun () ->
        check "ref join" true (F.is_ref_join catalog (eq (attr "C1" "r") (attr "C2" "oid")));
        check "plain equijoin" false
          (F.is_ref_join catalog (eq (attr "C1" "oid") (attr "C2" "x"))));
    Alcotest.test_case "indexed_selection and index_order" `Quick (fun () ->
        let sel = P.Cmp (P.Eq, P.T_attr (attr "C1" "oid"), P.T_int 3) in
        check "match" true (F.indexed_selection sel [ attr "C1" "oid" ]);
        check "no match" false (F.indexed_selection sel [ attr "C1" "r" ]);
        check "range does not use index" false
          (F.indexed_selection
             (P.Cmp (P.Lt, P.T_attr (attr "C1" "oid"), P.T_int 3))
             [ attr "C1" "oid" ]);
        check "order" true
          (O.equal (F.index_order sel [ attr "C1" "oid" ]) (O.sorted_on (attr "C1" "oid"))));
    Alcotest.test_case "mat_added_attrs / size from the ref target" `Quick
      (fun () ->
        Alcotest.(check int) "two attrs" 2 (List.length (F.mat_added_attrs catalog [ attr "C1" "r" ]));
        Alcotest.(check int) "size" 64 (F.mat_added_size catalog [ attr "C1" "r" ]);
        Alcotest.(check int) "non-ref" 0 (F.mat_added_size catalog [ attr "C1" "oid" ]));
    Alcotest.test_case "unnest fanout is the distinct statistic" `Quick (fun () ->
        Alcotest.(check int) "8" 8 (F.unnest_fanout catalog [ attr "C1" "kids" ]));
  ]

let env_tests =
  [
    Alcotest.test_case "helpers tolerate Null (unset) arguments" `Quick (fun () ->
        check "pred_is_true on null" true
          (V.to_bool (call "pred_is_true" [ V.Null ]));
        check "indexed_selection on nulls" false
          (V.to_bool (call "indexed_selection" [ V.Null; V.Null ])));
    Alcotest.test_case "arity errors are reported" `Quick (fun () ->
        check "raises" true
          (try
             ignore (call "union_attrs" [ V.Attrs [] ]);
             false
           with H.Helper_error _ -> true));
    Alcotest.test_case "cost helpers delegate to the cost model" `Quick
      (fun () ->
        checkf "file scan"
          (CM.file_scan ~card:100 ~tuple_size:100)
          (V.to_float (call "cost_file_scan" [ V.Int 100; V.Int 100 ])));
    Alcotest.test_case "builtins: coalesce and is_null" `Quick (fun () ->
        check "coalesce picks first non-null" true
          (V.equal (H.call H.builtins "coalesce" [ V.Null; V.Str "x" ]) (V.Str "x"));
        check "coalesce keeps first" true
          (V.equal (H.call H.builtins "coalesce" [ V.Int 1; V.Int 2 ]) (V.Int 1));
        check "is_null" true (V.to_bool (H.call H.builtins "is_null" [ V.Null ]));
        check "is_null false" false (V.to_bool (H.call H.builtins "is_null" [ V.Int 0 ])));
    Alcotest.test_case "environment merge is right-biased" `Quick (fun () ->
        let left = H.add "f" (fun _ -> V.Int 1) H.empty in
        let right = H.add "f" (fun _ -> V.Int 2) (H.add "g" (fun _ -> V.Int 3) H.empty) in
        let m = H.merge left right in
        check "right wins" true (V.equal (H.call m "f" []) (V.Int 2));
        check "union" true (V.equal (H.call m "g" []) (V.Int 3)));
    Alcotest.test_case "ship cost is monotone and counts pages" `Quick
      (fun () ->
        check "monotone" true
          (CM.ship ~input_cost:1.0 ~card:1000 ~tuple_size:100 > 1.0);
        Alcotest.(check (float 1e-9))
          "formula"
          (5.0 +. (CM.network_page_factor *. CM.pages ~card:400 ~tuple_size:100))
          (CM.ship ~input_cost:5.0 ~card:400 ~tuple_size:100));
    Alcotest.test_case "builtins: log clamps at zero" `Quick (fun () ->
        checkf "log 0" 0.0 (V.to_float (H.call H.builtins "log" [ V.Float 0.0 ]));
        checkf "log2 1" 0.0 (V.to_float (H.call H.builtins "log2" [ V.Int 1 ])));
  ]

let cost_tests =
  [
    Alcotest.test_case "pages never go below one" `Quick (fun () ->
        checkf "one page" 1.0 (CM.pages ~card:1 ~tuple_size:8));
    Alcotest.test_case "nested loops formula (paper Fig 6)" `Quick (fun () ->
        checkf "outer + n*inner" 210.0
          (CM.nested_loops ~outer_cost:10.0 ~outer_card:100 ~inner_cost:2.0));
    Alcotest.test_case "merge sort formula (paper Fig 5)" `Quick (fun () ->
        checkf "n log n" (5.0 +. (CM.cpu_per_tuple *. 8.0 *. 3.0))
          (CM.merge_sort ~input_cost:5.0 ~card:8));
    Alcotest.test_case "every binary cost is monotone in its inputs" `Quick
      (fun () ->
        (* branch-and-bound soundness: cost >= sum of input costs *)
        let checks =
          [
            CM.hash_join ~left_cost:3.0 ~right_cost:4.0 ~left_card:10 ~right_card:10 >= 7.0;
            CM.merge_join ~left_cost:3.0 ~right_cost:4.0 ~left_card:10 ~right_card:10 >= 7.0;
            CM.pointer_join ~outer_cost:3.0 ~inner_cost:4.0 ~outer_card:10 >= 7.0;
            CM.nested_loops ~outer_cost:3.0 ~outer_card:1 ~inner_cost:4.0 >= 7.0;
          ]
        in
        check "all monotone" true (List.for_all Fun.id checks));
    Alcotest.test_case "batched MAT is cheaper than ordered MAT" `Quick
      (fun () ->
        check "cheaper" true
          (CM.mat_unordered ~input_cost:1.0 ~card:100
          < CM.mat_ordered ~input_cost:1.0 ~card:100));
    Alcotest.test_case "index scan beats a full scan when selective" `Quick
      (fun () ->
        check "beats" true
          (CM.index_scan ~card:10_000 ~tuple_size:120 ~selectivity:0.005
          < CM.file_scan ~card:10_000 ~tuple_size:120));
  ]

(* staged (compiled) actions must agree with the interpreter everywhere:
   the P2V-translated optimizer finds plans as cheap as the naive
   exhaustive oracle, which runs the rule actions through [Eval] *)
let codegen_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make
         ~name:"compiled translation == interpreted naive oracle (1 join)"
         ~count:20
         QCheck2.Gen.(pair (1 -- 6) (0 -- 1000))
         (fun (qn, seed) ->
           let module W = Prairie_workload in
           let module Opt = Prairie_optimizers.Optimizers in
           let q = Option.get (W.Queries.of_int qn) in
           let inst = W.Queries.instance q ~joins:1 ~seed in
           let catalog = inst.W.Queries.catalog in
           let opt = Opt.oodb_prairie catalog in
           let r = Opt.optimize opt inst.W.Queries.expr in
           let query, required = opt.Opt.prepare inst.W.Queries.expr in
           match Prairie.Naive.best_plan (Opt.oodb_ruleset catalog) ~required query with
           | None -> r.Opt.plan = None
           | Some n ->
             Float.abs (n.Prairie.Naive.cost -. r.Opt.cost)
             <= 1e-6 *. Float.max 1.0 (Float.abs n.Prairie.Naive.cost)));
    Alcotest.test_case "compile-time static checks fire" `Quick (fun () ->
        let slot = Prairie.Compiled.slot (Prairie.Compiled.slots [ "D1"; "D2" ]) in
        check "unknown helper at compile time" true
          (try
             let (_ : Prairie.Compiled.env -> V.t) =
               Prairie.Compiled.expr H.builtins slot
                 (Prairie.Action.call "no_such_helper" [])
             in
             false
           with H.Unknown_helper _ -> true);
        check "protected assignment at compile time" true
          (try
             let (_ : Prairie.Compiled.env -> unit) =
               Prairie.Compiled.stmts ~protected:[ "D1" ] H.builtins slot
                 [ Prairie.Action.Assign_prop ("D1", "x", Prairie.Action.int 1) ]
             in
             false
           with Prairie.Eval.Rule_error _ -> true);
        check "descriptor without a slot at compile time" true
          (try
             let (_ : Prairie.Compiled.env -> V.t) =
               Prairie.Compiled.expr H.builtins slot (Prairie.Action.prop "D9" "x")
             in
             false
           with Invalid_argument _ -> true));
  ]

(* The attribute kernels against the set-based definitions they replaced:
   random attribute lists over a small universe (so lists overlap and
   repeat), sorted or not, and predicates over the same universe. *)
let kernel_tests =
  let module G = QCheck2.Gen in
  let attr_gen =
    G.map2 (fun o n -> attr (Printf.sprintf "R%d" o) (Printf.sprintf "a%d" n))
      (G.int_bound 2) (G.int_bound 3)
  in
  let list_gen =
    G.map2
      (fun sorted l -> if sorted then List.sort_uniq A.compare l else l)
      G.bool
      (G.list_size (G.int_bound 6) attr_gen)
  in
  let pred_gen =
    G.map
      (fun atoms ->
        P.of_conjuncts
          (List.map (fun (a, b) -> P.Cmp (P.Eq, P.T_attr a, P.T_attr b)) atoms))
      (G.list_size (G.int_bound 3) (G.pair attr_gen attr_gen))
  in
  let set = A.Set.of_list in
  let old_union a b = List.sort_uniq A.compare (a @ b) in
  let old_refs_only p al = A.Set.subset (P.attributes p) (set al) in
  let old_refs_any p al =
    not (A.Set.is_empty (A.Set.inter (P.attributes p) (set al)))
  in
  let old_subset a b = A.Set.subset (set a) (set b) in
  let prop name gen f =
    QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count:500 gen f)
  in
  [
    prop "union_attrs equals the sorted set union" (G.pair list_gen list_gen)
      (fun (a, b) -> F.union_attrs a b = old_union a b);
    prop "pred_refs_only equals the set definition" (G.pair pred_gen list_gen)
      (fun (p, al) -> F.pred_refs_only p al = old_refs_only p al);
    prop "pred_refs_any equals the set definition" (G.pair pred_gen list_gen)
      (fun (p, al) -> F.pred_refs_any p al = old_refs_any p al);
    prop "attrs_subset equals the set definition" (G.pair list_gen list_gen)
      (fun (a, b) -> F.attrs_subset a b = old_subset a b);
  ]

let suites =
  [
    ("helpers.functions", fn_tests);
    ("helpers.kernels", kernel_tests);
    ("helpers.environment", env_tests);
    ("helpers.cost_model", cost_tests);
    ("helpers.codegen", codegen_tests);
  ]
