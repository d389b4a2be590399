(* The SQL-like query front-end. *)

module Q = Prairie_query.Query
module W = Prairie_workload
module Opt = Prairie_optimizers.Optimizers
module Expr = Prairie.Expr
module P = Prairie_value.Predicate
module A = Prairie_value.Attribute
module O = Prairie_value.Order
module D = Prairie.Descriptor
module E = Prairie_executor

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let catalog =
  W.Catalogs.make (W.Catalogs.default_spec ~classes:3 ~indexed:true ~seed:5)

let parse_tests =
  [
    Alcotest.test_case "star projection and bare FROM" `Quick (fun () ->
        let q = Q.parse catalog "select * from C1" in
        check "star" true (q.Q.projection = None);
        check "one table" true (q.Q.tables = [ "C1" ]);
        check "no where" true (P.equal q.Q.where P.True));
    Alcotest.test_case "qualified and unqualified attributes resolve" `Quick
      (fun () ->
        let q = Q.parse catalog "select C1.oid, bC2 from C1, C2" in
        match q.Q.projection with
        | Some [ a; b ] ->
          check_str "a" "C1.oid" (A.to_string a);
          check_str "b" "C2.bC2" (A.to_string b)
        | _ -> Alcotest.fail "two attributes expected");
    Alcotest.test_case "ambiguous bare attribute rejected" `Quick (fun () ->
        (* oid exists in both C1 and C2 *)
        check "raises" true
          (try
             ignore (Q.parse catalog "select oid from C1, C2");
             false
           with Q.Error _ -> true));
    Alcotest.test_case "unknown table rejected" `Quick (fun () ->
        check "raises" true
          (try
             ignore (Q.parse catalog "select * from Nope");
             false
           with Q.Error _ -> true));
    Alcotest.test_case "unknown attribute rejected" `Quick (fun () ->
        check "raises" true
          (try
             ignore (Q.parse catalog "select C1.banana from C1");
             false
           with Q.Error _ -> true));
    Alcotest.test_case "where with and/or/not and comparisons" `Quick (fun () ->
        let q =
          Q.parse catalog
            "select * from C1 where not (bC1 = 3 or bC1 != 5) and oid <= 10"
        in
        check_int "two conjuncts" 2 (List.length (P.conjuncts q.Q.where)));
    Alcotest.test_case "negative numbers and strings" `Quick (fun () ->
        let q = Q.parse catalog "select * from C1 where bC1 > -4" in
        match P.conjuncts q.Q.where with
        | [ P.Cmp (P.Gt, _, P.T_int (-4)) ] -> ()
        | _ -> Alcotest.fail "expected bC1 > -4");
    Alcotest.test_case "order by" `Quick (fun () ->
        let q = Q.parse catalog "select * from C1 order by bC1, oid" in
        check_int "two" 2 (List.length q.Q.order_by));
    Alcotest.test_case "trailing garbage rejected" `Quick (fun () ->
        check "raises" true
          (try
             ignore (Q.parse catalog "select * from C1 42");
             false
           with Q.Error _ -> true));
  ]

let compile_tests =
  [
    Alcotest.test_case "join chain in FROM order with residual SELECT" `Quick
      (fun () ->
        let e =
          Q.compile_string catalog
            "select * from C1, C2, C3 where C1.rC1 = C2.oid and C2.rC2 = \
             C3.oid and bC1 = 3"
        in
        check_str "shape" "SELECT(JOIN(JOIN(RET(C1), RET(C2)), RET(C3)))"
          (Expr.to_string e);
        check "initialized" true (D.mem (Expr.descriptor e) "num_records"));
    Alcotest.test_case "join predicates end up on the right joins" `Quick
      (fun () ->
        let e =
          Q.compile_string catalog
            "select * from C1, C2 where C1.rC1 = C2.oid"
        in
        check "join pred" true
          (P.is_equijoin (D.get_pred (Expr.descriptor e) "join_predicate")));
    Alcotest.test_case "unconnected table rejected" `Quick (fun () ->
        check "raises" true
          (try
             ignore (Q.compile_string catalog "select * from C1, C2 where bC1 = 3");
             false
           with Q.Error _ -> true));
    Alcotest.test_case "projection and order-by become PROJECT and SORT" `Quick
      (fun () ->
        let e =
          Q.compile_string catalog "select C1.oid from C1 order by C1.oid"
        in
        check_str "sort at root" "SORT" (Expr.label e);
        check_str "project below" "PROJECT" (Expr.label (List.hd (Expr.inputs e))));
    Alcotest.test_case "compiled query optimizes like the workload builder"
      `Quick (fun () ->
        (* Q5 as SQL vs the workload's own construction: equal best costs *)
        let inst_like =
          Q.compile_string catalog
            "select * from C1, C2, C3 where C1.rC1 = C2.oid and C2.rC2 = \
             C3.oid and bC1 = 1 and bC2 = 2 and bC3 = 3"
        in
        let builder = W.Expressions.e3 catalog ~joins:2 in
        let opt = Opt.oodb_prairie catalog in
        Alcotest.(check (float 1e-6))
          "same optimum"
          (Opt.optimize opt builder).Opt.cost
          (Opt.optimize opt inst_like).Opt.cost);
    Alcotest.test_case "end to end: parse, optimize, execute, verify order"
      `Quick (fun () ->
        let e =
          Q.compile_string catalog
            "select C1.oid, C1.bC1 from C1 where bC1 < 50 order by C1.oid"
        in
        let r = Opt.optimize (Opt.oodb_prairie catalog) e in
        match r.Opt.plan with
        | None -> Alcotest.fail "no plan"
        | Some plan ->
          let db = E.Data_gen.database ~seed:1 catalog in
          let schema, rows = E.Compile.execute_plan db plan in
          check "has rows" true (rows <> []);
          check_int "two columns" 2 (Array.length schema);
          (* rows sorted by oid, and all satisfy the predicate *)
          let oid = A.make ~owner:"C1" ~name:"oid" in
          let rec sorted = function
            | a :: (b :: _ as rest) ->
              E.Tuple.compare_by schema [ oid ] a b <= 0 && sorted rest
            | _ -> true
          in
          check "sorted" true (sorted rows);
          check "filtered" true
            (List.for_all
               (fun row ->
                 E.Tuple.eval_pred schema
                   (P.Cmp (P.Lt, P.T_attr (A.make ~owner:"C1" ~name:"bC1"), P.T_int 50))
                   row)
               rows));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"long digit runs raise only Query.Error"
         ~count:200 ~print:Fun.id
         QCheck2.Gen.(
           let digits = string_size ~gen:(char_range '0' '9') (1 -- 40) in
           let template =
             oneofl
               [
                 Printf.sprintf "select * from C1 where bC1 = %s";
                 Printf.sprintf "select * from C1 where bC1 > -%s";
                 Printf.sprintf "select C1.oid from C1 where oid <= %s.5";
                 Printf.sprintf
                   "select * from C1, C2 where C1.rC1 = C2.oid and bC2 != %s";
                 Printf.sprintf "select * from C1 %s";
                 Printf.sprintf "%s";
               ]
           in
           map2 (fun t d -> t d) template digits)
         (fun sql ->
           match Q.compile_string catalog sql with
           | _ -> true
           | exception Q.Error _ -> true));
  ]

let suites = [ ("query.parse", parse_tests); ("query.compile", compile_tests) ]
