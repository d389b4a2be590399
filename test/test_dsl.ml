(* The rule-specification language: lexer, parser, elaboration, rendering. *)

module Dsl = Prairie_dsl
module Token = Prairie_dsl.Token
module Catalog = Prairie_catalog.Catalog
module Rel = Prairie_algebra.Relational

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let tokens src = List.map (fun s -> s.Dsl.Lexer.token) (Dsl.Lexer.tokenize src)

let lexer_tests =
  [
    Alcotest.test_case "operators and punctuation" `Quick (fun () ->
        check "arrow" true
          (tokens "==> == = != <= >="
          = Token.[ ARROW; EQ; ASSIGN; NEQ; LE; GE; EOF ]));
    Alcotest.test_case "stream variables" `Quick (fun () ->
        check "vars" true (tokens "?1 ?23" = Token.[ STREAM_VAR 1; STREAM_VAR 23; EOF ]));
    Alcotest.test_case "keywords vs identifiers" `Quick (fun () ->
        check "kw" true
          (tokens "trule irule foo TRUE DONT_CARE"
          = Token.[ KW_TRULE; KW_IRULE; IDENT "foo"; KW_TRUE; KW_DONT_CARE; EOF ]));
    Alcotest.test_case "numbers" `Quick (fun () ->
        check "int float" true (tokens "42 4.5" = Token.[ INT 42; FLOAT 4.5; EOF ]));
    Alcotest.test_case "comments are skipped" `Quick (fun () ->
        check "line" true (tokens "a // comment\nb" = Token.[ IDENT "a"; IDENT "b"; EOF ]);
        check "block" true (tokens "a /* x\ny */ b" = Token.[ IDENT "a"; IDENT "b"; EOF ]));
    Alcotest.test_case "string literals with escapes" `Quick (fun () ->
        check "str" true (tokens {|"a\"b"|} = Token.[ STRING {|a"b|}; EOF ]));
    Alcotest.test_case "positions track lines" `Quick (fun () ->
        let spans = Dsl.Lexer.tokenize "a\n  b" in
        let b = List.nth spans 1 in
        check_int "line" 2 b.Dsl.Lexer.pos.Dsl.Lexer.line;
        check_int "col" 3 b.Dsl.Lexer.pos.Dsl.Lexer.column);
    Alcotest.test_case "lex errors carry positions" `Quick (fun () ->
        check "raises" true
          (try
             ignore (Dsl.Lexer.tokenize "a $ b");
             false
           with Dsl.Lexer.Lex_error (p, _) -> p.Dsl.Lexer.line = 1));
    Alcotest.test_case "unterminated comment rejected" `Quick (fun () ->
        check "raises" true
          (try
             ignore (Dsl.Lexer.tokenize "/* foo");
             false
           with Dsl.Lexer.Lex_error _ -> true));
  ]

let minimal_spec =
  {|
ruleset tiny;
property tuple_order : ORDER;
property num_records : INT;
property tuple_size : INT;
property cost : COST;
operator RET(1);
algorithm File_scan(1);

irule ret_file_scan:
  RET(?1) : D2 ==> File_scan(?1) : D3
  test { is_dont_care(D2.tuple_order) }
  pre { D3 = D2; }
  post { D3.cost = cost_file_scan(D1.num_records, D1.tuple_size); }
|}

let helpers = Prairie_algebra.Helpers.env Catalog.empty

let parser_tests =
  [
    Alcotest.test_case "minimal spec parses" `Quick (fun () ->
        let spec = Dsl.Parser.parse minimal_spec in
        Alcotest.(check string) "name" "tiny" spec.Dsl.Ast.ruleset_name;
        check_int "props" 4 (List.length (Dsl.Ast.properties spec));
        check_int "irules" 1 (List.length (Dsl.Ast.irules spec)));
    Alcotest.test_case "sections may appear in any order" `Quick (fun () ->
        let src =
          {|ruleset t; operator A(1); algorithm X(1);
            irule r: A(?1) : D2 ==> X(?1) : D3
            post { D3.cost = 1; } test { TRUE } pre { D3 = D2; }|}
        in
        let spec = Dsl.Parser.parse src in
        let r = List.hd (Dsl.Ast.irules spec) in
        check_int "pre" 1 (List.length r.Dsl.Ast.rb_pre);
        check_int "post" 1 (List.length r.Dsl.Ast.rb_post));
    Alcotest.test_case "re-descriptored template inputs" `Quick (fun () ->
        let src =
          {|ruleset t; operator S(1); algorithm Null(1);
            irule n: S(?1) : D2 ==> Null(?1 : D3) : D4
            pre { D4 = D2; D3 = D1; D3.tuple_order = D2.tuple_order; }
            post { D4.cost = D3.cost; }|}
        in
        let spec = Dsl.Parser.parse src in
        let r = List.hd (Dsl.Ast.irules spec) in
        match r.Dsl.Ast.rb_rhs with
        | Prairie.Pattern.Tnode (_, _, [ Prairie.Pattern.Tvar (1, Some "D3") ]) -> ()
        | _ -> Alcotest.fail "re-descriptor lost");
    Alcotest.test_case "operator precedence" `Quick (fun () ->
        let src =
          {|ruleset t; operator A(1); algorithm X(1);
            irule r: A(?1) : D2 ==> X(?1) : D3
            post { D3.cost = D1.cost + D1.num_records * 2; }|}
        in
        let spec = Dsl.Parser.parse src in
        let r = List.hd (Dsl.Ast.irules spec) in
        match r.Dsl.Ast.rb_post with
        | [ Prairie.Action.Assign_prop (_, _, Prairie.Action.Binop (Prairie.Action.Add, _, Prairie.Action.Binop (Prairie.Action.Mul, _, _))) ] -> ()
        | _ -> Alcotest.fail "mul should bind tighter than add");
    Alcotest.test_case "parse errors report position" `Quick (fun () ->
        check "raises" true
          (try
             ignore (Dsl.Parser.parse "ruleset t; trule x JOIN");
             false
           with Dsl.Parser.Parse_error (_, _) -> true));
  ]

let elaborate_tests =
  [
    Alcotest.test_case "minimal spec elaborates and validates" `Quick (fun () ->
        let rs = Dsl.Elaborate.load_string ~helpers minimal_spec in
        check_int "irules" 1 (Prairie.Ruleset.irule_count rs);
        check "File_scan declared" true (List.mem "File_scan" rs.Prairie.Ruleset.algorithms));
    Alcotest.test_case "unknown property type rejected" `Quick (fun () ->
        check "raises" true
          (try
             ignore
               (Dsl.Elaborate.load_string ~helpers "ruleset t; property p : BLOB;");
             false
           with Dsl.Elaborate.Elab_error _ -> true));
    Alcotest.test_case "arity mismatch rejected" `Quick (fun () ->
        let src =
          {|ruleset t; operator A(2); algorithm X(1);
            irule r: A(?1) : D2 ==> X(?1) : D3 post { D3 = D2; }|}
        in
        check "raises" true
          (try
             ignore (Dsl.Elaborate.load_string ~helpers src);
             false
           with Dsl.Elaborate.Elab_error _ -> true));
    Alcotest.test_case "undeclared operation rejected" `Quick (fun () ->
        let src =
          {|ruleset t; operator A(1);
            irule r: A(?1) : D2 ==> Mystery(?1) : D3 post { D3 = D2; }|}
        in
        check "raises" true
          (try
             ignore (Dsl.Elaborate.load_string ~helpers src);
             false
           with Dsl.Elaborate.Elab_error _ -> true));
    Alcotest.test_case "unregistered helper rejected" `Quick (fun () ->
        let src =
          {|ruleset t; property cost : COST; operator A(1); algorithm X(1);
            irule r: A(?1) : D2 ==> X(?1) : D3
            pre { D3 = D2; } post { D3.cost = mystery_fn(1); }|}
        in
        check "raises" true
          (try
             ignore (Dsl.Elaborate.load_string ~helpers src);
             false
           with Dsl.Elaborate.Elab_error _ -> true));
  ]

(* round-trip: render the embedded rule sets, re-parse, and verify the
   optimizers behave identically on every input *)
let roundtrip name builds query_cost =
  Alcotest.test_case (name ^ " round-trips through the language") `Quick
    (fun () ->
      List.iter
        (fun build ->
          let catalog, ruleset, q = build () in
          let text = Dsl.Render.ruleset_to_string ruleset in
          let reparsed =
            Dsl.Elaborate.load_string
              ~helpers:(Prairie_algebra.Helpers.env catalog) text
          in
          check_int "same T count" (Prairie.Ruleset.trule_count ruleset)
            (Prairie.Ruleset.trule_count reparsed);
          check_int "same I count" (Prairie.Ruleset.irule_count ruleset)
            (Prairie.Ruleset.irule_count reparsed);
          Alcotest.(check (float 1e-6))
            "same optimization result" (query_cost ruleset q)
            (query_cost reparsed q))
        builds)

let run_cost ruleset q =
  let tr = Prairie_p2v.Translate.translate ruleset in
  let ctx = Prairie_volcano.Search.create tr.Prairie_p2v.Translate.volcano in
  let expr, required = Prairie_p2v.Translate.prepare_query tr q in
  match Prairie_volcano.Search.optimize ~required ctx expr with
  | Some p -> Prairie_volcano.Plan.cost p
  | None -> infinity

let roundtrip_tests =
  [
    roundtrip "relational rule set"
      [ (fun () ->
        let catalog =
          Catalog.of_files
            [
              Rel.relation ~name:"R1" ~cardinality:500 [ ("a", 10) ];
              Rel.relation ~name:"R2" ~cardinality:300 [ ("a", 10) ];
            ]
        in
        let q =
          Rel.join catalog
            ~pred:
              (Prairie_value.Predicate.Cmp
                 ( Prairie_value.Predicate.Eq,
                   Prairie_value.Predicate.T_attr
                     (Prairie_value.Attribute.make ~owner:"R1" ~name:"a"),
                   Prairie_value.Predicate.T_attr
                     (Prairie_value.Attribute.make ~owner:"R2" ~name:"a") ))
            (Rel.ret catalog "R1") (Rel.ret catalog "R2")
        in
        (catalog, Rel.ruleset catalog, q)) ]
      run_cost;
    (* Q3 on catalogs 29, 31 and 35 needs the always-true predicate
       literal: rendered as a string, it made the reparsed rule set find
       cheaper (wrong) plans there *)
    roundtrip "open OODB rule set"
      (List.map
         (fun (q, seed) () ->
           let inst = Prairie_workload.Queries.instance q ~joins:2 ~seed in
           ( inst.Prairie_workload.Queries.catalog,
             Prairie_algebra.Oodb.ruleset inst.Prairie_workload.Queries.catalog,
             inst.Prairie_workload.Queries.expr ))
         Prairie_workload.Queries.[ (Q5, 17); (Q3, 29); (Q3, 31); (Q3, 35) ])
      run_cost;
  ]

let shipped_files_tests =
  [
    Alcotest.test_case "shipped .prairie files load and validate" `Quick
      (fun () ->
        List.iter
          (fun (path, trules, irules) ->
            if Sys.file_exists path then begin
              let rs =
                Dsl.Elaborate.load
                  ~helpers:(Prairie_algebra.Helpers.env Catalog.empty)
                  path
              in
              check_int (path ^ " trules") trules (Prairie.Ruleset.trule_count rs);
              check_int (path ^ " irules") irules (Prairie.Ruleset.irule_count rs)
            end
            else Alcotest.fail ("missing shipped rule file " ^ path))
          [
            ("../rules/relational.prairie", 5, 6);
            ("../rules/open_oodb.prairie", 22, 11);
          ]);
    Alcotest.test_case "shipped OODB file P2V-compacts to the paper's counts"
      `Quick (fun () ->
        let rs =
          Dsl.Elaborate.load
            ~helpers:(Prairie_algebra.Helpers.env Catalog.empty)
            "../rules/open_oodb.prairie"
        in
        let m = Prairie_p2v.Merge.merge rs in
        check_int "17 trans" 17 (Prairie_p2v.Merge.trans_rule_count m);
        check_int "9 impl" 9 (Prairie_p2v.Merge.impl_rule_count m);
        check_int "1 enforcer" 1 (Prairie_p2v.Merge.enforcer_count m));
  ]

(* property: any action expression renders to source that re-parses to the
   same AST (the renderer parenthesizes fully, so shapes are preserved) *)
let gen_action_expr =
  let module Action = Prairie.Action in
  let module V = Prairie_value.Value in
  QCheck2.Gen.(
    let dvar = oneofl [ "D1"; "D2"; "D3" ] in
    let prop = oneofl [ "cost"; "num_records"; "tuple_order" ] in
    let helper = oneofl [ "log"; "min"; "max"; "is_dont_care" ] in
    let binop =
      oneofl
        Action.
          [
            Add; Sub; Mul; Div; And; Or;
            Cmp Prairie_value.Predicate.Eq;
            Cmp Prairie_value.Predicate.Lt;
            Cmp Prairie_value.Predicate.Ge;
          ]
    in
    sized_size (0 -- 4) @@ fix (fun self n ->
        let leaf =
          oneof
            [
              map (fun i -> Action.Const (V.Int i)) (0 -- 50);
              map (fun b -> Action.Const (V.Bool b)) bool;
              return (Action.Const (V.Order Prairie_value.Order.Any));
              return (Action.Const (V.Pred Prairie_value.Predicate.True));
              map (fun s -> Action.Const (V.Str s)) (oneofl [ "x"; "hello" ]);
              map2 (fun d p -> Action.Prop (d, p)) dvar prop;
            ]
        in
        if n = 0 then leaf
        else
          oneof
            [
              leaf;
              map3 (fun op a b -> Action.Binop (op, a, b)) binop (self (n / 2)) (self (n / 2));
              map (fun a -> Action.Unop (Action.Not, a)) (self (n - 1));
              map (fun a -> Action.Unop (Action.Neg, a)) (self (n - 1));
              map2 (fun h args -> Action.Call (h, args)) helper (list_size (0 -- 2) (self (n / 2)));
            ]))

let parse_expr_via_rule text =
  let src =
    Printf.sprintf
      {|ruleset t; operator A(1); algorithm X(1);
        irule r: A(?1) : D2 ==> X(?1) : D3 test { %s } post { D3 = D2; }|}
      text
  in
  let spec = Dsl.Parser.parse src in
  (List.hd (Dsl.Ast.irules spec)).Dsl.Ast.rb_test

let roundtrip_property_tests =
  [
    Alcotest.test_case "constants without surface syntax do not render" `Quick
      (fun () ->
        let sorted =
          Prairie.Action.Const
            (Prairie_value.Value.Order
               (Prairie_value.Order.sorted_on
                  (Prairie_value.Attribute.make ~owner:"R" ~name:"a")))
        in
        check "raises" true
          (try
             ignore (Format.asprintf "%a" Dsl.Render.expr sorted);
             false
           with Invalid_argument _ -> true));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"expression render/parse round trip" ~count:300
         gen_action_expr (fun e ->
           let text = Format.asprintf "%a" Dsl.Render.expr e in
           parse_expr_via_rule text = e));
  ]

let suites =
  [
    ("dsl.lexer", lexer_tests);
    ("dsl.parser", parser_tests);
    ("dsl.elaborate", elaborate_tests);
    ("dsl.roundtrip", roundtrip_tests);
    ("dsl.shipped_files", shipped_files_tests);
    ("dsl.roundtrip_property", roundtrip_property_tests);
  ]
