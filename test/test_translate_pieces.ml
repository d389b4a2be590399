(* The exposed P2V code-generation pieces, driven directly: generated
   cond/appl closures for a trans rule, and the generated impl-rule
   functions (cond, input requirements, finalize). *)

module P2v = Prairie_p2v
module Rule = Prairie_volcano.Rule
module D = Prairie.Descriptor
module V = Prairie_value.Value
module O = Prairie_value.Order
module P = Prairie_value.Predicate
module A = Prairie_value.Attribute
module Rel = Prairie_algebra.Relational
module Catalog = Prairie_catalog.Catalog
module CM = Prairie_algebra.Cost_model

let check = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-9))
let attr o n = A.make ~owner:o ~name:n
let eq a b = P.Cmp (P.Eq, P.T_attr a, P.T_attr b)

let catalog =
  Catalog.of_files
    [
      Rel.relation ~name:"R1" ~cardinality:100 [ ("a", 10) ];
      Rel.relation ~name:"R2" ~cardinality:40 [ ("a", 10) ];
      Rel.relation ~name:"R3" ~cardinality:20 [ ("a", 10) ];
    ]

let ruleset = Rel.ruleset catalog
let helpers = ruleset.Prairie.Ruleset.helpers
let find_t name = Option.get (Prairie.Ruleset.find_trule ruleset name)
let find_i name = Option.get (Prairie.Ruleset.find_irule ruleset name)

(* descriptors playing the role of memo-bound group/lexpr descriptors *)
let join_arg ~pred ~card =
  D.of_list
    [
      ("join_predicate", V.Pred pred);
      ("num_records", V.Int card);
      ("tuple_size", V.Int 200);
      ( "attributes",
        V.Attrs [ attr "R1" "a"; attr "R2" "a" ] );
    ]

let stream_desc ~owner ~card =
  D.of_list
    [
      ("attributes", V.Attrs [ attr owner "a" ]);
      ("num_records", V.Int card);
      ("tuple_size", V.Int 100);
    ]

(* A trans rule's slot array with the named descriptors bound, as the
   search leaves it after a match, and a named read of it. *)
let env_of (tr : Rule.trans_rule) bindings =
  let env = Array.make (Array.length tr.Rule.tr_slots) D.empty in
  List.iter (fun (d, v) -> env.(Prairie.Compiled.slot tr.Rule.tr_slots d) <- v) bindings;
  env

let get (tr : Rule.trans_rule) env d = env.(Prairie.Compiled.slot tr.Rule.tr_slots d)

let trans_tests =
  [
    Alcotest.test_case "generated commutativity cond/appl" `Quick (fun () ->
        let tr = P2v.Translate.trans_of_trule helpers (find_t "join_commute") in
        let env =
          env_of tr
            [ ("D3", join_arg ~pred:(eq (attr "R1" "a") (attr "R2" "a")) ~card:400) ]
        in
        if not (tr.Rule.tr_cond env) then Alcotest.fail "commutativity is unconditional";
        tr.Rule.tr_appl env;
        check "D4 computed" true (D.equal (get tr env "D4") (get tr env "D3")));
    Alcotest.test_case "generated associativity rejects cross products" `Quick
      (fun () ->
        let tr = P2v.Translate.trans_of_trule helpers (find_t "join_assoc_left") in
        (* outer predicate references R1 (part of the left subtree):
           the rewrite would make the inner join a cross product *)
        let env =
          env_of tr
            [
              ("D5", join_arg ~pred:(eq (attr "R1" "a") (attr "R3" "a")) ~card:100);
              ("D4", join_arg ~pred:(eq (attr "R1" "a") (attr "R2" "a")) ~card:400);
              ("D1", stream_desc ~owner:"R1" ~card:100);
              ("D2", stream_desc ~owner:"R2" ~card:40);
              ("D3", stream_desc ~owner:"R3" ~card:20);
            ]
        in
        check "rejected" false (tr.Rule.tr_cond env));
    Alcotest.test_case "generated associativity computes inner statistics"
      `Quick (fun () ->
        let tr = P2v.Translate.trans_of_trule helpers (find_t "join_assoc_left") in
        let env =
          env_of tr
            [
              ("D5", join_arg ~pred:(eq (attr "R2" "a") (attr "R3" "a")) ~card:100);
              ("D4", join_arg ~pred:(eq (attr "R1" "a") (attr "R2" "a")) ~card:400);
              ("D1", stream_desc ~owner:"R1" ~card:100);
              ("D2", stream_desc ~owner:"R2" ~card:40);
              ("D3", stream_desc ~owner:"R3" ~card:20);
            ]
        in
        if not (tr.Rule.tr_cond env) then Alcotest.fail "should apply";
        tr.Rule.tr_appl env;
        let d6 = get tr env "D6" in
        (* |R2| * |R3| / max distinct = 40 * 20 / 10 *)
        Alcotest.(check int) "inner card" 80 (D.get_int d6 "num_records");
        Alcotest.(check int) "inner size" 200 (D.get_int d6 "tuple_size"));
    Alcotest.test_case "slot table numbers every descriptor variable once"
      `Quick (fun () ->
        let tr = P2v.Translate.trans_of_trule helpers (find_t "join_assoc_left") in
        let names = List.sort String.compare (Array.to_list tr.Rule.tr_slots) in
        Alcotest.(check (list string))
          "LHS, RHS and action names" [ "D1"; "D2"; "D3"; "D4"; "D5"; "D6"; "D7" ] names;
        Alcotest.(check int) "three stream slots" 3 tr.Rule.tr_streams);
    Alcotest.test_case "a variable-rooted LHS is rejected when built" `Quick
      (fun () ->
        Alcotest.check_raises "no operator to match"
          (Invalid_argument "trans rule bare: LHS is the bare stream variable ?1")
          (fun () ->
            ignore
              (Rule.trans_rule ~name:"bare" ~lhs:(Prairie.Pattern.Pvar 1)
                 ~rhs:(Prairie.Pattern.Tvar (1, None))
                 (fun _ -> ((fun _ -> true), fun _ -> ())))));
  ]

let impl_tests =
  [
    Alcotest.test_case "generated Nested_loops impl-rule functions" `Quick
      (fun () ->
        let ir =
          P2v.Translate.impl_of_irule helpers
            ~physical:[ "tuple_order" ]
            (find_i "join_nested_loops")
        in
        Alcotest.(check string) "op" "JOIN" ir.Rule.ir_op;
        Alcotest.(check string) "alg" "Nested_loops" ir.Rule.ir_alg;
        let op_arg = join_arg ~pred:(eq (attr "R1" "a") (attr "R2" "a")) ~card:400 in
        let inputs =
          [| stream_desc ~owner:"R1" ~card:100; stream_desc ~owner:"R2" ~card:40 |]
        in
        let req =
          D.of_list [ ("tuple_order", V.Order (O.sorted_on (attr "R1" "a"))) ]
        in
        check "always applicable" true (ir.Rule.ir_cond ~op_arg ~req ~inputs);
        (* the required order flows to the outer input only *)
        let reqs = ir.Rule.ir_input_reqs ~op_arg ~req ~inputs in
        check "outer carries the order" true
          (O.equal (D.get_order reqs.(0) "tuple_order") (O.sorted_on (attr "R1" "a")));
        check "inner unconstrained" true (D.is_empty reqs.(1));
        (* finalize computes the Fig. 6 cost from achieved inputs *)
        let achieved =
          [|
            D.set_cost (stream_desc ~owner:"R1" ~card:100) 7.0;
            D.set_cost (stream_desc ~owner:"R2" ~card:40) 2.0;
          |]
        in
        let out = ir.Rule.ir_finalize ~op_arg ~req ~inputs:achieved in
        checkf "7 + 100 * 2" 207.0 (D.cost out));
    Alcotest.test_case "generated Index_scan cond consults the file's indexes"
      `Quick (fun () ->
        let ir =
          P2v.Translate.impl_of_irule helpers
            ~physical:[ "tuple_order" ]
            (find_i "ret_index_scan")
        in
        let sel = P.Cmp (P.Eq, P.T_attr (attr "R1" "a"), P.T_int 3) in
        let op_arg =
          D.of_list
            [ ("selection_predicate", V.Pred sel); ("num_records", V.Int 10) ]
        in
        let indexed =
          D.of_list
            [
              ("num_records", V.Int 100);
              ("tuple_size", V.Int 100);
              ("indexes", V.Attrs [ attr "R1" "a" ]);
            ]
        in
        let bare = D.without indexed [ "indexes" ] in
        check "applies with the index" true
          (ir.Rule.ir_cond ~op_arg ~req:D.empty ~inputs:[| indexed |]);
        check "rejected without" false
          (ir.Rule.ir_cond ~op_arg ~req:D.empty ~inputs:[| bare |]);
        (* achieved order is the index order *)
        let out = ir.Rule.ir_finalize ~op_arg ~req:D.empty ~inputs:[| indexed |] in
        check "order delivered" true
          (O.equal (D.get_order out "tuple_order") (O.sorted_on (attr "R1" "a")));
        checkf "cost model"
          (CM.index_scan ~card:100 ~tuple_size:100 ~selectivity:0.1)
          (D.cost out));
    Alcotest.test_case "generated enforcer functions" `Quick (fun () ->
        let info = List.hd (P2v.Enforcers.detect ruleset) in
        let en =
          P2v.Translate.enforcer_of_irule helpers
            ~enforced:info.P2v.Enforcers.enforced_properties
            (List.hd info.P2v.Enforcers.algorithm_rules)
        in
        Alcotest.(check string) "alg" "Merge_sort" en.Rule.en_alg;
        let req =
          D.of_list [ ("tuple_order", V.Order (O.sorted_on (attr "R1" "a"))) ]
        in
        check "applies" true (en.Rule.en_applies ~req);
        check "relaxed empty" true (D.is_empty (en.Rule.en_relaxed ~req));
        let input = D.set_cost (stream_desc ~owner:"R1" ~card:8) 1.0 in
        let out = en.Rule.en_finalize ~req ~input in
        checkf "1 + cpu * 8 * 3" (1.0 +. (CM.cpu_per_tuple *. 8.0 *. 3.0)) (D.cost out));
  ]

(* The staged path against the reference interpreter: for every T-rule
   of the four shipped rule files (as elaborated, and as P2V merged them),
   an expression generated to the rule's LHS shape is matched the way the
   search matches a memo expression — operator descriptor variables bind
   node descriptors, [Di] the input's root descriptor — into the rule's
   slot array; then [tr_cond], [tr_appl] and the RHS built from
   [tr_build] must give exactly what [Eval.apply_trule] gives. *)
let staged_apply (tr : Rule.trans_rule) expr =
  let env = Array.make (Array.length tr.Rule.tr_slots) D.empty in
  let streams = Array.make tr.Rule.tr_streams expr in
  let rec bind pat e =
    match (pat, e) with
    | Rule.Match_var { stream; desc }, _ ->
      streams.(stream) <- e;
      env.(desc) <- Prairie.Expr.descriptor e;
      true
    | Rule.Match_op op, _ -> bind_op op e
  and bind_op (pat : Rule.match_op) e =
    match e with
    | Prairie.Expr.Node (Prairie.Expr.Operator, n, d, inputs)
      when String.equal n pat.Rule.op && List.length inputs = pat.Rule.arity ->
      env.(pat.Rule.desc) <- d;
      List.for_all2 bind pat.Rule.subs inputs
    | _ -> false
  in
  let rec build = function
    | Rule.Build_var s -> streams.(s)
    | Rule.Build_op (op, d, subs) ->
      Prairie.Expr.Node (Prairie.Expr.Operator, op, env.(d), List.map build subs)
  in
  if bind_op tr.Rule.tr_match expr && tr.Rule.tr_cond env then begin
    tr.Rule.tr_appl env;
    Some (build tr.Rule.tr_build)
  end
  else None

let staged_tests =
  let module W = Prairie_workload in
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"staged T-rules agree with Eval on the shipped files"
         ~count:25 QCheck2.Gen.nat (fun seed ->
           List.for_all
             (fun (_, spec) ->
               let rng = Prairie_util.Rng.create seed in
               let w = W.Generate.world rng in
               let rs =
                 Prairie_dsl.Elaborate.elaborate
                   ~helpers:(Prairie_algebra.Helpers.env w.W.Generate.catalog)
                   spec
               in
               let helpers = rs.Prairie.Ruleset.helpers in
               let ops = List.map fst rs.Prairie.Ruleset.operators in
               List.for_all
                 (fun (t : Prairie.Trule.t) ->
                   let expr = W.Generate.of_pattern rng w ~ops t.Prairie.Trule.lhs in
                   let tr = P2v.Translate.trans_of_trule helpers t in
                   let expected = Prairie.Eval.apply_trule helpers t expr in
                   match (expected, staged_apply tr expr) with
                   | None, None -> true
                   | Some a, Some b when Prairie.Expr.equal a b -> true
                   | _ ->
                     QCheck2.Test.fail_reportf "%s on %s" t.Prairie.Trule.name
                       (Prairie.Expr.to_string expr))
                 (rs.Prairie.Ruleset.trules
                 @ (P2v.Merge.merge rs).P2v.Merge.trans_trules))
             Prairie_algebra.Shipped.files));
  ]

let suites =
  [
    ("translate_pieces.trans", trans_tests);
    ("translate_pieces.slots", staged_tests);
    ("translate_pieces.impl", impl_tests);
  ]
