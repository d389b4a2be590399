(* Loading an optimizer from a .prairie rule-specification file.

     dune exec examples/rulefile_demo.exe

   The textual front-end replaces the paper's flex/bison pre-processor
   input.  This example writes a small rule set in the surface language,
   loads it, runs P2V and optimizes a query with it — an optimizer defined
   entirely at runtime. *)

module Catalog = Prairie_catalog.Catalog
module Rel = Prairie_algebra.Relational
module Dsl = Prairie_dsl
module A = Prairie_value.Attribute
module P = Prairie_value.Predicate

(* A reduced relational optimizer: no indexes, no merge join — just enough
   to show the language.  Note the Null rule making SORT an
   enforcer-operator, exactly as in the paper's Figure 7. *)
let spec =
  {|
ruleset mini_relational;

property attributes          : ATTRIBUTES;
property num_records         : INT;
property tuple_size          : INT;
property tuple_order         : ORDER;
property selection_predicate : PREDICATE;
property join_predicate      : PREDICATE;
property cost                : COST;

operator  RET(1);
operator  JOIN(2);
operator  SORT(1);
algorithm File_scan(1);
algorithm Nested_loops(2);
algorithm Merge_sort(1);

trule join_commute:
  JOIN(?1, ?2) : D3 ==> JOIN(?2, ?1) : D4
  post { D4 = D3; }

// Paper Fig. 6
irule join_nested_loops:
  JOIN(?1, ?2) : D3 ==> Nested_loops(?1 : D4, ?2) : D5
  pre {
    D5 = D3;
    D4 = D1;
    D4.tuple_order = D3.tuple_order;
  }
  post {
    D5.cost = D4.cost + D4.num_records * D2.cost;
    D5.tuple_order = D4.tuple_order;
  }

irule ret_file_scan:
  RET(?1) : D2 ==> File_scan(?1) : D3
  test { is_dont_care(D2.tuple_order) }
  pre  { D3 = D2; }
  post { D3.cost = cost_file_scan(D1.num_records, D1.tuple_size); }

// Paper Fig. 5
irule sort_merge_sort:
  SORT(?1) : D2 ==> Merge_sort(?1) : D3
  test { !is_dont_care(D2.tuple_order) }
  pre  { D3 = D2; }
  post { D3.cost = cost_sort(D1.cost, D3.num_records); }

// Paper Fig. 7(b)
irule sort_null:
  SORT(?1) : D2 ==> Null(?1 : D3) : D4
  pre {
    D4 = D2;
    D3 = D1;
    D3.tuple_order = D2.tuple_order;
  }
  post { D4.cost = D3.cost; }
|}

let () =
  let catalog =
    Catalog.of_files
      [
        Rel.relation ~name:"parts" ~cardinality:2_000 [ ("pk", 500) ];
        Rel.relation ~name:"supp" ~cardinality:300 [ ("pk", 500) ];
      ]
  in
  let ruleset =
    Dsl.Elaborate.load_string ~helpers:(Prairie_algebra.Helpers.env catalog)
      spec
  in
  Format.printf "loaded %S: %d T-rules, %d I-rules@." ruleset.Prairie.Ruleset.name
    (Prairie.Ruleset.trule_count ruleset)
    (Prairie.Ruleset.irule_count ruleset);

  let tr = Prairie_p2v.Translate.translate ruleset in
  Format.printf "@.%a@." Prairie_p2v.Report.pp (Prairie_p2v.Report.of_translation tr);

  let q =
    Rel.join catalog
      ~pred:(P.Cmp (P.Eq, P.T_attr (A.make ~owner:"parts" ~name:"pk"),
                    P.T_attr (A.make ~owner:"supp" ~name:"pk")))
      (Rel.ret catalog "parts") (Rel.ret catalog "supp")
  in
  let search = Prairie_volcano.Search.create tr.Prairie_p2v.Translate.volcano in
  (match Prairie_volcano.Search.optimize search q with
  | Some plan ->
    Format.printf "@.best plan: %a  (cost %.2f)@." Prairie_volcano.Plan.pp plan
      (Prairie_volcano.Plan.cost plan)
  | None -> print_endline "no plan");

  (* round-trip: the embedded Open OODB rule set renders to the language *)
  let oodb = Prairie_algebra.Oodb.ruleset catalog in
  let text = Dsl.Render.ruleset_to_string oodb in
  let reparsed =
    Dsl.Elaborate.load_string ~helpers:(Prairie_algebra.Helpers.env catalog) text
  in
  Format.printf
    "@.round-trip of the embedded OODB rule set: %d T-rules and %d I-rules \
     re-parsed from %d bytes of rendered source@."
    (Prairie.Ruleset.trule_count reparsed)
    (Prairie.Ruleset.irule_count reparsed)
    (String.length text)
