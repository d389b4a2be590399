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
          (tokens "trule irule foo TRUE DONT_CARE NULL null"
          = Token.
              [
                KW_TRULE; KW_IRULE; IDENT "foo"; KW_TRUE; KW_DONT_CARE; KW_NULL;
                IDENT "null"; EOF;
              ]));
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
    Alcotest.test_case "min_int only after a unary minus" `Quick (fun () ->
        (* 64-bit: min_int = -4611686018427387904 *)
        check "negated magnitude" true
          (tokens "x = -4611686018427387904"
          = Token.[ IDENT "x"; ASSIGN; MINUS; INT min_int; EOF ]);
        let out_of_range src column =
          match Dsl.Lexer.tokenize src with
          | _ -> false
          | exception Dsl.Lexer.Lex_error (p, msg) ->
            p.Dsl.Lexer.column = column
            && msg = "integer literal out of range"
        in
        check "one past min_int" true
          (out_of_range "x = -4611686018427387905" 6);
        check "magnitude without the minus" true
          (out_of_range "x = 4611686018427387904" 5);
        check "magnitude after a binary minus" true
          (out_of_range "x = 1 - 4611686018427387904" 9));
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
        check "File_scan declared" true (List.mem_assoc "File_scan" rs.Prairie.Ruleset.algorithms));
    Alcotest.test_case "declarations no rule uses are kept and rendered" `Quick
      (fun () ->
        let src =
          {|ruleset t; operator A(1); algorithm X(1); algorithm Unused(2);
            irule r: A(?1) : D2 ==> X(?1) : D3 post { D3 = D2; }|}
        in
        let rs = Dsl.Elaborate.load_string ~helpers src in
        check "Unused declared" true
          (List.mem ("Unused", 2) rs.Prairie.Ruleset.algorithms);
        let text = Dsl.Render.ruleset_to_string rs in
        let again = Dsl.Elaborate.load_string ~helpers text in
        check "rendered" true
          (List.mem "algorithm Unused(2);" (String.split_on_char '\n' text));
        check "same operators" true
          (again.Prairie.Ruleset.operators = rs.Prairie.Ruleset.operators);
        check "same algorithms" true
          (again.Prairie.Ruleset.algorithms = rs.Prairie.Ruleset.algorithms));
    Alcotest.test_case "a mistyped negative literal is P017" `Quick (fun () ->
        Support.check_rejects ~helpers "P017"
          {|ruleset t; property n : INT; operator A(1); algorithm X(1);
            irule r: A(?1) : D2 ==> X(?1) : D3 post { D3 = D2; D3.n = -1.5; }|});
    Alcotest.test_case "unknown property type rejected" `Quick (fun () ->
        Support.check_rejects ~helpers "P018" "ruleset t; property p : BLOB;");
    Alcotest.test_case "arity mismatch rejected" `Quick (fun () ->
        Support.check_rejects ~helpers "P005"
          {|ruleset t; operator A(2); algorithm X(1);
            irule r: A(?1) : D2 ==> X(?1) : D3 post { D3 = D2; }|});
    Alcotest.test_case "undeclared operation rejected" `Quick (fun () ->
        Support.check_rejects ~helpers "P003"
          {|ruleset t; operator A(1);
            irule r: A(?1) : D2 ==> Mystery(?1) : D3 post { D3 = D2; }|});
    Alcotest.test_case "unregistered helper rejected" `Quick (fun () ->
        Support.check_rejects ~helpers "P015"
          {|ruleset t; property cost : COST; operator A(1); algorithm X(1);
            irule r: A(?1) : D2 ==> X(?1) : D3
            pre { D3 = D2; } post { D3.cost = mystery_fn(1); }|});
  ]

(* round-trip: render the shipped rule sets, re-parse, and verify the
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
    (* the SHIP introductions clear the site with the NULL literal *)
    roundtrip "distributed rule set"
      [ (fun () ->
        let module Dist = Prairie_algebra.Distributed in
        let catalog =
          Catalog.of_files
            [
              Rel.relation ~name:"R1" ~cardinality:5_000 [ ("a", 10) ];
              Rel.relation ~name:"R2" ~cardinality:300 [ ("a", 10) ];
            ]
        in
        let sites = [ ("R1", "paris"); ("R2", "austin") ] in
        let q =
          Dist.join catalog
            ~pred:
              (Prairie_value.Predicate.Cmp
                 ( Prairie_value.Predicate.Eq,
                   Prairie_value.Predicate.T_attr
                     (Prairie_value.Attribute.make ~owner:"R1" ~name:"a"),
                   Prairie_value.Predicate.T_attr
                     (Prairie_value.Attribute.make ~owner:"R2" ~name:"a") ))
            (Dist.ret ~sites catalog "R1") (Dist.ret ~sites catalog "R2")
        in
        (catalog, Dist.ruleset catalog, q)) ]
      run_cost;
  ]

let shipped_files_tests =
  [
    Alcotest.test_case "shipped .prairie files load and validate" `Quick
      (fun () ->
        (* the optimizer's rule sets are the elaborated shipped files *)
        List.iter
          (fun (name, (rs : Prairie.Ruleset.t), trules, irules) ->
            Alcotest.(check string) "rule set name" name rs.Prairie.Ruleset.name;
            Alcotest.(check (list string)) (name ^ " validates") [] (Support.rule_text_errors rs);
            check "declares Props.schema" true
              (rs.Prairie.Ruleset.properties = Prairie_algebra.Props.schema);
            check_int (name ^ " trules") trules (Prairie.Ruleset.trule_count rs);
            check_int (name ^ " irules") irules (Prairie.Ruleset.irule_count rs))
          [
            ("relational", Rel.ruleset Catalog.empty, 5, 6);
            ("open_oodb", Prairie_algebra.Oodb.ruleset Catalog.empty, 22, 11);
            ("distributed", Prairie_algebra.Distributed.ruleset Catalog.empty, 5, 6);
            ("aggregates", Prairie_algebra.Aggregates.fragment Catalog.empty, 1, 4);
          ]);
    Alcotest.test_case "the library embeds every file in rules/" `Quick
      (fun () ->
        let sorted = List.sort String.compare in
        let embedded =
          List.map (fun (path, _) -> "../" ^ path) Prairie_algebra.Shipped.files
        in
        let on_disk =
          Sys.readdir "../rules" |> Array.to_list
          |> List.filter (fun f -> Filename.check_suffix f ".prairie")
          |> List.map (fun f -> "../rules/" ^ f)
        in
        Alcotest.(check (list string))
          "embedded" (sorted Support.shipped_rule_files) (sorted embedded);
        Alcotest.(check (list string))
          "on disk" (sorted Support.shipped_rule_files) (sorted on_disk));
    Alcotest.test_case "a shipped file that does not parse names its path"
      `Quick (fun () ->
        match
          Prairie_algebra.Shipped.parse "rules/x.prairie"
            "ruleset broken\n\noperator A(1);"
        with
        | _ -> Alcotest.fail "parsed a malformed file"
        | exception Failure msg ->
          Alcotest.(check string)
            "path and line:col" "rules/x.prairie:3:1: parse error: expected ;, found operator"
            msg);
    Alcotest.test_case "rendered shipped files re-elaborate to the same rule set"
      `Quick (fun () ->
        List.iter
          (fun (path, spec) ->
            let rs = Dsl.Elaborate.elaborate ~helpers spec in
            let again =
              Dsl.Elaborate.load_string ~helpers (Dsl.Render.ruleset_to_string rs)
            in
            let same what eq = check (path ^ ": same " ^ what) true eq in
            same "name" (again.Prairie.Ruleset.name = rs.Prairie.Ruleset.name);
            same "properties"
              (again.Prairie.Ruleset.properties = rs.Prairie.Ruleset.properties);
            same "operators" (again.Prairie.Ruleset.operators = rs.Prairie.Ruleset.operators);
            same "algorithms"
              (again.Prairie.Ruleset.algorithms = rs.Prairie.Ruleset.algorithms);
            same "T-rules" (again.Prairie.Ruleset.trules = rs.Prairie.Ruleset.trules);
            same "I-rules" (again.Prairie.Ruleset.irules = rs.Prairie.Ruleset.irules))
          Prairie_algebra.Shipped.files);
    Alcotest.test_case "shipped OODB file P2V-compacts to the paper's counts"
      `Quick (fun () ->
        let rs = Prairie_algebra.Oodb.ruleset Catalog.empty in
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
              map (fun i -> Action.Const (V.Int i))
                (oneof [ 0 -- 50; neg_int; oneofl [ min_int; max_int ] ]);
              (* finite floats of either sign and every magnitude, including
                 the ones %g would print with an exponent *)
              map2
                (fun m e -> Action.Const (V.Float (Float.ldexp m e)))
                (float_range (-1.) 1.) (int_range (-1074) 1023);
              map (fun b -> Action.Const (V.Bool b)) bool;
              return (Action.Const (V.Order Prairie_value.Order.Any));
              return (Action.Const (V.Pred Prairie_value.Predicate.True));
              return (Action.Const V.Null);
              map (fun s -> Action.Const (V.Str s))
                (oneof [ oneofl [ "x"; "hello"; "a\tb\"c\\d\ne" ]; string_size (0 -- 8) ]);
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
        let module V = Prairie_value.Value in
        let sorted =
          V.Order
            (Prairie_value.Order.sorted_on
               (Prairie_value.Attribute.make ~owner:"R" ~name:"a"))
        in
        List.iter
          (fun v ->
            check (V.to_repr v ^ " raises") true
              (try
                 ignore (Format.asprintf "%a" Dsl.Render.expr (Prairie.Action.Const v));
                 false
               with Invalid_argument _ -> true))
          [ sorted; V.Float infinity; V.Float neg_infinity; V.Float nan ]);
    Alcotest.test_case "negative literals are constants and round-trip" `Quick
      (fun () ->
        let module V = Prairie_value.Value in
        List.iter
          (fun (text, v) ->
            let e = Prairie.Action.Const v in
            check (text ^ " parses to a constant") true (parse_expr_via_rule text = e);
            Alcotest.(check string)
              (text ^ " renders back") text
              (Format.asprintf "%a" Dsl.Render.expr e))
          [
            ("-5", V.Int (-5));
            ("-1.5", V.Float (-1.5));
            ("-4611686018427387904", V.Int min_int);
            ("100000000000000000000.0", V.Float 1e20);
            ("-0.000000059604644775390625", V.Float (-.Float.ldexp 1. (-24)));
          ];
        (* a minus on anything but a literal stays an operator *)
        check "-(5)" true
          (parse_expr_via_rule "-(5)"
          = Prairie.Action.(Unop (Neg, Const (Prairie_value.Value.Int 5))));
        check "-x" true
          (parse_expr_via_rule "-x" = Prairie.Action.(Unop (Neg, Desc "x"))));
    Alcotest.test_case "NULL parses to the null constant and renders back"
      `Quick (fun () ->
        let e = parse_expr_via_rule "is_null(NULL)" in
        check "Const Null" true
          (e
          = Prairie.Action.(
              Call ("is_null", [ Const Prairie_value.Value.Null ])));
        let text = Format.asprintf "%a" Dsl.Render.expr e in
        Alcotest.(check string) "rendered" "is_null(NULL)" text;
        check "reparsed" true (parse_expr_via_rule text = e));
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
