module Pattern = Prairie.Pattern
module Action = Prairie.Action
module Value = Prairie_value.Value
module Order = Prairie_value.Order
module Predicate = Prairie_value.Predicate

exception Parse_error of Lexer.position * string

type state = {
  mutable tokens : Lexer.spanned list;
}

let current st =
  match st.tokens with
  | [] -> { Lexer.token = Token.EOF; pos = { Lexer.line = 0; column = 0 } }
  | t :: _ -> t

let error st msg = raise (Parse_error ((current st).Lexer.pos, msg))
let peek st = (current st).Lexer.token

let advance st =
  match st.tokens with [] -> () | _ :: rest -> st.tokens <- rest

let expect st token =
  if peek st = token then advance st
  else
    error st
      (Printf.sprintf "expected %s, found %s" (Token.to_string token)
         (Token.to_string (peek st)))

let ident st =
  match peek st with
  | Token.IDENT name ->
    advance st;
    name
  | t -> error st (Printf.sprintf "expected an identifier, found %s" (Token.to_string t))

let int_lit st =
  match peek st with
  | Token.INT i ->
    advance st;
    i
  | t -> error st (Printf.sprintf "expected an integer, found %s" (Token.to_string t))

(* ---------------- expressions ---------------- *)

let rec parse_expr st = parse_or st

and parse_or st =
  let lhs = parse_and st in
  if peek st = Token.OR then begin
    advance st;
    Action.Binop (Action.Or, lhs, parse_or st)
  end
  else lhs

and parse_and st =
  let lhs = parse_cmp st in
  if peek st = Token.AND then begin
    advance st;
    Action.Binop (Action.And, lhs, parse_and st)
  end
  else lhs

and parse_cmp st =
  let lhs = parse_add st in
  let cmp c =
    advance st;
    Action.Binop (Action.Cmp c, lhs, parse_add st)
  in
  match peek st with
  | Token.EQ -> cmp Prairie_value.Predicate.Eq
  | Token.NEQ -> cmp Prairie_value.Predicate.Ne
  | Token.LT -> cmp Prairie_value.Predicate.Lt
  | Token.LE -> cmp Prairie_value.Predicate.Le
  | Token.GT -> cmp Prairie_value.Predicate.Gt
  | Token.GE -> cmp Prairie_value.Predicate.Ge
  | _ -> lhs

and parse_add st =
  let lhs = parse_mul st in
  let rec go lhs =
    match peek st with
    | Token.PLUS ->
      advance st;
      go (Action.Binop (Action.Add, lhs, parse_mul st))
    | Token.MINUS ->
      advance st;
      go (Action.Binop (Action.Sub, lhs, parse_mul st))
    | _ -> lhs
  in
  go lhs

and parse_mul st =
  let lhs = parse_unary st in
  let rec go lhs =
    match peek st with
    | Token.STAR ->
      advance st;
      go (Action.Binop (Action.Mul, lhs, parse_unary st))
    | Token.SLASH ->
      advance st;
      go (Action.Binop (Action.Div, lhs, parse_unary st))
    | _ -> lhs
  in
  go lhs

and parse_unary st =
  match peek st with
  | Token.BANG ->
    advance st;
    Action.Unop (Action.Not, parse_unary st)
  | Token.MINUS -> (
    advance st;
    (* a minus directly on a numeric literal is part of the literal, so a
       negative constant reads back as the constant Render printed *)
    match peek st with
    | Token.INT i ->
      advance st;
      Action.Const (Value.Int (-i))
    | Token.FLOAT f ->
      advance st;
      Action.Const (Value.Float (-.f))
    | _ -> Action.Unop (Action.Neg, parse_unary st))
  | _ -> parse_primary st

and parse_primary st =
  match peek st with
  | Token.INT i ->
    advance st;
    Action.Const (Value.Int i)
  | Token.FLOAT f ->
    advance st;
    Action.Const (Value.Float f)
  | Token.STRING s ->
    advance st;
    Action.Const (Value.Str s)
  | Token.KW_TRUE ->
    advance st;
    Action.Const (Value.Bool true)
  | Token.KW_FALSE ->
    advance st;
    Action.Const (Value.Bool false)
  | Token.KW_DONT_CARE ->
    advance st;
    Action.Const (Value.Order Order.Any)
  | Token.KW_TRUE_PRED ->
    advance st;
    Action.Const (Value.Pred Predicate.True)
  | Token.KW_NULL ->
    advance st;
    Action.Const Value.Null
  | Token.LPAREN ->
    advance st;
    let e = parse_expr st in
    expect st Token.RPAREN;
    e
  | Token.IDENT name -> (
    advance st;
    match peek st with
    | Token.LPAREN ->
      advance st;
      let args =
        if peek st = Token.RPAREN then []
        else
          let rec go acc =
            let acc = parse_expr st :: acc in
            if peek st = Token.COMMA then begin
              advance st;
              go acc
            end
            else List.rev acc
          in
          go []
      in
      expect st Token.RPAREN;
      Action.Call (name, args)
    | Token.DOT ->
      advance st;
      Action.Prop (name, ident st)
    | _ -> Action.Desc name)
  | t -> error st (Printf.sprintf "expected an expression, found %s" (Token.to_string t))

(* ---------------- statements ---------------- *)

let parse_stmt st =
  let d = ident st in
  let target =
    match peek st with
    | Token.DOT ->
      advance st;
      `Prop (d, ident st)
    | _ -> `Desc d
  in
  expect st Token.ASSIGN;
  let e = parse_expr st in
  expect st Token.SEMI;
  match target with
  | `Desc d -> Action.Assign_desc (d, e)
  | `Prop (d, p) -> Action.Assign_prop (d, p, e)

let parse_stmts st =
  expect st Token.LBRACE;
  let rec go acc =
    if peek st = Token.RBRACE then begin
      advance st;
      List.rev acc
    end
    else go (parse_stmt st :: acc)
  in
  go []

(* ---------------- patterns and templates ---------------- *)

let rec parse_pattern st =
  let name = ident st in
  expect st Token.LPAREN;
  let rec args acc =
    let acc = parse_pat st :: acc in
    if peek st = Token.COMMA then begin
      advance st;
      args acc
    end
    else List.rev acc
  in
  let subs = args [] in
  expect st Token.RPAREN;
  expect st Token.COLON;
  let dvar = ident st in
  Pattern.Pop (name, dvar, subs)

and parse_pat st =
  match peek st with
  | Token.STREAM_VAR i ->
    advance st;
    Pattern.Pvar i
  | _ -> parse_pattern st

let rec parse_template st =
  let name = ident st in
  expect st Token.LPAREN;
  let rec args acc =
    let acc = parse_tmpl st :: acc in
    if peek st = Token.COMMA then begin
      advance st;
      args acc
    end
    else List.rev acc
  in
  let subs = args [] in
  expect st Token.RPAREN;
  expect st Token.COLON;
  let dvar = ident st in
  Pattern.Tnode (name, dvar, subs)

and parse_tmpl st =
  match peek st with
  | Token.STREAM_VAR i -> (
    advance st;
    match peek st with
    | Token.COLON ->
      advance st;
      Pattern.Tvar (i, Some (ident st))
    | _ -> Pattern.Tvar (i, None))
  | _ -> parse_template st

(* ---------------- declarations ---------------- *)

let parse_rule_body st ~loc name =
  let lhs = parse_pattern st in
  expect st Token.ARROW;
  let rhs = parse_template st in
  let pre = ref [] and test = ref Action.tt and post = ref [] in
  let rec sections () =
    match peek st with
    | Token.KW_PRE ->
      advance st;
      pre := parse_stmts st;
      sections ()
    | Token.KW_TEST ->
      advance st;
      expect st Token.LBRACE;
      test := parse_expr st;
      expect st Token.RBRACE;
      sections ()
    | Token.KW_POST ->
      advance st;
      post := parse_stmts st;
      sections ()
    | _ -> ()
  in
  sections ();
  {
    Ast.rb_name = name;
    rb_loc = loc;
    rb_lhs = lhs;
    rb_rhs = rhs;
    rb_pre = !pre;
    rb_test = !test;
    rb_post = !post;
  }

let parse_decl st =
  let loc = (current st).Lexer.pos in
  match peek st with
  | Token.KW_PROPERTY ->
    advance st;
    let name = ident st in
    expect st Token.COLON;
    let ty = ident st in
    expect st Token.SEMI;
    Some (Ast.Dproperty (name, ty, loc))
  | Token.KW_OPERATOR ->
    advance st;
    let name = ident st in
    expect st Token.LPAREN;
    let arity = int_lit st in
    expect st Token.RPAREN;
    expect st Token.SEMI;
    Some (Ast.Doperator (name, arity, loc))
  | Token.KW_ALGORITHM ->
    advance st;
    let name = ident st in
    expect st Token.LPAREN;
    let arity = int_lit st in
    expect st Token.RPAREN;
    expect st Token.SEMI;
    Some (Ast.Dalgorithm (name, arity, loc))
  | Token.KW_TRULE ->
    advance st;
    let name = ident st in
    expect st Token.COLON;
    Some (Ast.Dtrule (parse_rule_body st ~loc name))
  | Token.KW_IRULE ->
    advance st;
    let name = ident st in
    expect st Token.COLON;
    Some (Ast.Dirule (parse_rule_body st ~loc name))
  | Token.EOF -> None
  | t ->
    error st
      (Printf.sprintf "expected a declaration, found %s" (Token.to_string t))

let parse src =
  let st = { tokens = Lexer.tokenize src } in
  expect st Token.KW_RULESET;
  let ruleset_name = ident st in
  expect st Token.SEMI;
  let rec go acc =
    match parse_decl st with
    | Some d -> go (d :: acc)
    | None -> List.rev acc
  in
  let decls = go [] in
  { Ast.ruleset_name; decls }
