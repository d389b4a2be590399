(* Descriptors: the uniform annotation lists. *)

module D = Prairie.Descriptor
module V = Prairie_value.Value
module O = Prairie_value.Order
module P = Prairie_value.Predicate
module Property = Prairie.Property

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let a = Prairie_value.Attribute.make ~owner:"R" ~name:"a"

let basic_tests =
  [
    Alcotest.test_case "get of unset is Null" `Quick (fun () ->
        check "null" true (V.equal (D.get D.empty "x") V.Null));
    Alcotest.test_case "set then get" `Quick (fun () ->
        let d = D.set D.empty "n" (V.Int 4) in
        check_int "four" 4 (D.get_int d "n"));
    Alcotest.test_case "setting Null removes" `Quick (fun () ->
        let d = D.set (D.set D.empty "n" (V.Int 4)) "n" V.Null in
        check "empty" true (D.is_empty d));
    Alcotest.test_case "no-constraint normalization" `Quick (fun () ->
        let d = D.set D.empty "tuple_order" (V.Order O.Any) in
        check "any removed" true (D.is_empty d);
        let d = D.set D.empty "p" (V.Pred P.True) in
        check "true removed" true (D.is_empty d);
        (* but they read back as the defaults *)
        check "order default" true (O.is_any (D.get_order D.empty "tuple_order"));
        check "pred default" true (P.equal (D.get_pred D.empty "p") P.True));
    Alcotest.test_case "merge is right-biased" `Quick (fun () ->
        let base = D.of_list [ ("x", V.Int 1); ("y", V.Int 2) ] in
        let over = D.of_list [ ("y", V.Int 9); ("z", V.Int 3) ] in
        let m = D.merge ~base ~overrides:over in
        check_int "x" 1 (D.get_int m "x");
        check_int "y" 9 (D.get_int m "y");
        check_int "z" 3 (D.get_int m "z"));
    Alcotest.test_case "restrict and without" `Quick (fun () ->
        let d = D.of_list [ ("x", V.Int 1); ("y", V.Int 2); ("z", V.Int 3) ] in
        check_int "restrict" 2 (List.length (D.to_list (D.restrict d [ "x"; "z" ])));
        check_int "without" 1 (List.length (D.to_list (D.without d [ "x"; "z" ]))));
    Alcotest.test_case "cost accessors" `Quick (fun () ->
        Alcotest.(check (float 0.0)) "default" 0.0 (D.cost D.empty);
        Alcotest.(check (float 0.0)) "set" 2.5 (D.cost (D.set_cost D.empty 2.5)));
    Alcotest.test_case "pool_stats is all zero" `Quick (fun () ->
        ignore (D.set (D.of_list [ ("n", V.Int 1) ]) "m" (V.Int 2));
        let s = D.pool_stats () in
        check_int "size" 0 s.D.size;
        check_int "hits" 0 s.D.hits;
        check_int "misses" 0 s.D.misses);
    Alcotest.test_case "typed accessors" `Quick (fun () ->
        let d = D.of_list [ ("attrs", V.Attrs [ a ]); ("o", V.Order (O.sorted_on a)) ] in
        check_int "attrs" 1 (List.length (D.get_attrs d "attrs"));
        check "order" true (O.equal (D.get_order d "o") (O.sorted_on a)));
  ]

let gen_value =
  QCheck2.Gen.(
    oneof
      [
        return V.Null;
        map (fun b -> V.Bool b) bool;
        map (fun i -> V.Int i) (0 -- 100);
        map (fun f -> V.Float f) (float_bound_inclusive 100.0);
        map (fun s -> V.Str s) (oneofl [ "x"; "y"; "z" ]);
        map (fun o -> V.Order o) Test_value.gen_order;
        map (fun p -> V.Pred p) Test_value.gen_pred;
      ])

let gen_desc =
  QCheck2.Gen.(
    let* bindings =
      list_size (0 -- 5) (pair (oneofl [ "p"; "q"; "r"; "s"; "t" ]) gen_value)
    in
    return (D.of_list bindings))

let qtest name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count:300 gen prop)

let property_based =
  [
    qtest "equal descriptors hash equally" (QCheck2.Gen.pair gen_desc gen_desc)
      (fun (d1, d2) -> (not (D.equal d1 d2)) || D.hash d1 = D.hash d2);
    qtest "set then get returns a default-equivalent value"
      (QCheck2.Gen.triple gen_desc (QCheck2.Gen.oneofl [ "p"; "q" ]) gen_value)
      (fun (d, k, v) ->
        let got = D.get (D.set d k v) k in
        V.equal got v
        || (* normalized no-constraint values read back as Null *)
        (V.equal got V.Null
        && (match v with
           | V.Order o -> O.is_any o
           | V.Pred p -> P.equal p P.True
           | V.Null -> true
           | _ -> false)));
    qtest "merge with empty is identity" gen_desc (fun d ->
        D.equal (D.merge ~base:d ~overrides:D.empty) d
        && D.equal (D.merge ~base:D.empty ~overrides:d) d);
    qtest "to_list/of_list round trip" gen_desc (fun d ->
        D.equal d (D.of_list (D.to_list d)));
    qtest "restrict and without partition" gen_desc (fun d ->
        let keys = [ "p"; "q" ] in
        List.length (D.to_list (D.restrict d keys))
        + List.length (D.to_list (D.without d keys))
        = List.length (D.to_list d));
  ]

(* Equal bindings make interchangeable descriptors: equality, ordering,
   hash and fingerprint agree, however the bindings were built, and equal
   descriptors are interchangeable wherever one is used as a hash-table
   key. *)
let shuffle l =
  List.map snd
    (List.sort
       (fun (a, _) (b, _) -> Int.compare a b)
       (List.mapi (fun i x -> ((i * 7919) mod 101, x)) l))

let interning_based =
  [
    qtest "equal, compare and fingerprint agree"
      (QCheck2.Gen.pair gen_desc gen_desc) (fun (d1, d2) ->
        let eq = D.equal d1 d2 in
        eq = (D.compare d1 d2 = 0)
        && eq = String.equal (D.fingerprint d1) (D.fingerprint d2));
    qtest "same bindings give the same descriptor" gen_desc (fun d ->
        let rebuilt = D.of_list (shuffle (D.to_list d)) in
        D.equal d rebuilt && D.hash d = D.hash rebuilt);
    qtest "equal descriptors are interchangeable Tbl keys"
      (QCheck2.Gen.pair gen_desc gen_desc) (fun (d1, d2) ->
        let tbl = D.Tbl.create 4 in
        D.Tbl.replace tbl d1 ();
        D.Tbl.mem tbl (D.of_list (shuffle (D.to_list d1)))
        && D.Tbl.mem tbl d2 = D.equal d1 d2);
    qtest "restrict_set agrees with restrict" gen_desc (fun d ->
        let keys = [ "p"; "q"; "t" ] in
        let set = D.String_set.of_list keys in
        D.equal (D.restrict_set d set) (D.restrict d keys)
        && D.equal (D.without_set d set) (D.without d keys));
    qtest "incremental hash matches rebuilt hash"
      (QCheck2.Gen.triple gen_desc (QCheck2.Gen.oneofl [ "p"; "q"; "u" ])
         gen_value) (fun (d, k, v) ->
        (* drive set/remove (the incremental XOR path) and compare against a
           from-scratch rebuild (the fold path) *)
        let d' = D.remove (D.set d k v) "r" in
        D.hash d' = D.hash (D.of_list (D.to_list d')));
  ]

let property_tests =
  [
    Alcotest.test_case "declare defaults by type" `Quick (fun () ->
        let p = Property.declare "o" V.T_order in
        check "order default" true (V.equal p.Property.default (V.Order O.Any));
        let p = Property.declare "p" V.T_pred in
        check "pred default" true (V.equal p.Property.default (V.Pred P.True));
        let p = Property.declare "n" V.T_int in
        check "int default null" true (V.equal p.Property.default V.Null));
    Alcotest.test_case "cost_properties" `Quick (fun () ->
        let schema =
          [ Property.declare "cost" V.T_cost; Property.declare "n" V.T_int ]
        in
        Alcotest.(check (list string)) "cost" [ "cost" ]
          (Property.cost_properties schema));
    Alcotest.test_case "validate types" `Quick (fun () ->
        (* the schema is enforced where rule text assigns a property *)
        let src assign =
          {|ruleset t; property n : INT; property cost : COST;
            operator A(1); algorithm X(1);
            irule r: A(?1) : D2 ==> X(?1) : D3
            pre { D3 = D2; } post { D3.cost = 1; |}
          ^ assign ^ " }"
        in
        check "ok" true
          (Prairie_dsl.Check.errors (Prairie_dsl.Parser.parse (src "D3.n = 1;")) = []);
        Support.check_rejects "P017" (src {|D3.n = "x";|});
        Support.check_rejects "P001" (src "D3.z = 1;"));
  ]

(* Across domains: a descriptor built in another domain is a distinct
   record, so equality, hashing, ordering and shared tables must all go by
   the bindings. *)
let cross_domain_tests =
  let bindings =
    [ ("attrs", V.Attrs [ a ]); ("n", V.Int 7); ("tag", V.Str "x") ]
  in
  [
    Alcotest.test_case "two domains build equal but distinct records" `Quick
      (fun () ->
        let here = D.of_list bindings in
        let there = Domain.join (Domain.spawn (fun () -> D.of_list bindings)) in
        check "distinct records" true (not (here == there));
        check "equal" true (D.equal here there);
        check_int "same hash" (D.hash here) (D.hash there);
        check_int "compare 0" 0 (D.compare here there);
        Alcotest.(check string)
          "same fingerprint" (D.fingerprint here) (D.fingerprint there));
    Alcotest.test_case "shared Tbl round-trips across domains" `Quick
      (fun () ->
        let here = D.of_list bindings in
        let tbl = D.Tbl.create 8 in
        D.Tbl.replace tbl here "planned";
        (* probe built by a different domain *)
        let there = Domain.join (Domain.spawn (fun () -> D.of_list bindings)) in
        check "found by structural key" true
          (D.Tbl.find_opt tbl there = Some "planned");
        (* reverse direction: insert under the foreign record, probe with
           the local one *)
        let tbl2 = D.Tbl.create 8 in
        D.Tbl.replace tbl2 there "cached";
        check "reverse lookup" true (D.Tbl.find_opt tbl2 here = Some "cached");
        (* descriptors derived from the foreign record stay
           interchangeable *)
        let d1 = D.set here "extra" (V.Int 1) in
        let d2 = D.set there "extra" (V.Int 1) in
        check "derived equal" true (D.equal d1 d2));
  ]

let suites =
  [
    ("descriptor.basic", basic_tests);
    ("descriptor.domains", cross_domain_tests);
    ("descriptor.properties", property_based);
    ("descriptor.interning", interning_based);
    ("descriptor.schema", property_tests);
  ]
