type position = {
  line : int;
  column : int;
}

exception Lex_error of position * string

type spanned = {
  token : Token.t;
  pos : position;
}

let pp_position ppf p = Format.fprintf ppf "line %d, column %d" p.line p.column

type state = {
  src : string;
  mutable offset : int;
  mutable line : int;
  mutable col : int;
}

let position st = { line = st.line; column = st.col }
let error st msg = raise (Lex_error (position st, msg))
let peek st = if st.offset < String.length st.src then Some st.src.[st.offset] else None

let peek2 st =
  if st.offset + 1 < String.length st.src then Some st.src.[st.offset + 1]
  else None

let advance st =
  (match peek st with
  | Some '\n' ->
    st.line <- st.line + 1;
    st.col <- 1
  | Some _ -> st.col <- st.col + 1
  | None -> ());
  st.offset <- st.offset + 1

let is_digit c = c >= '0' && c <= '9'
let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident c = is_ident_start c || is_digit c

let rec skip_trivia st =
  match peek st with
  | Some (' ' | '\t' | '\r' | '\n') ->
    advance st;
    skip_trivia st
  | Some '/' when peek2 st = Some '/' ->
    while peek st <> None && peek st <> Some '\n' do
      advance st
    done;
    skip_trivia st
  | Some '/' when peek2 st = Some '*' ->
    advance st;
    advance st;
    let rec go () =
      match (peek st, peek2 st) with
      | Some '*', Some '/' ->
        advance st;
        advance st
      | Some _, _ ->
        advance st;
        go ()
      | None, _ -> error st "unterminated comment"
    in
    go ();
    skip_trivia st
  | Some _ | None -> ()

(* Digits starting at [start], read as an [int]; a literal beyond [max_int]
   is a lexical error at [pos], where the literal begins.  The one
   exception is [-min_int] ([max_int + 1]) right after a unary minus
   ([negated]): it reads as [min_int], which that minus maps to itself, so
   [-4611686018427387904] denotes [min_int] on 64-bit. *)
let int_literal ?(negated = false) st pos start =
  let digits = String.sub st.src start (st.offset - start) in
  match int_of_string_opt digits with
  | Some n -> n
  | None when negated && int_of_string_opt ("-" ^ digits) = Some min_int ->
    min_int
  | None -> raise (Lex_error (pos, "integer literal out of range"))

let lex_number ~negated st =
  let pos = position st in
  let start = st.offset in
  while (match peek st with Some c -> is_digit c | None -> false) do
    advance st
  done;
  let is_float =
    match (peek st, peek2 st) with
    | Some '.', Some c when is_digit c -> true
    | _ -> false
  in
  if is_float then begin
    advance st;
    while (match peek st with Some c -> is_digit c | None -> false) do
      advance st
    done;
    Token.FLOAT (float_of_string (String.sub st.src start (st.offset - start)))
  end
  else Token.INT (int_literal ~negated st pos start)

let lex_ident st =
  let start = st.offset in
  while (match peek st with Some c -> is_ident c | None -> false) do
    advance st
  done;
  let word = String.sub st.src start (st.offset - start) in
  match Token.keyword_of_string word with
  | Some kw -> kw
  | None -> Token.IDENT word

let lex_string st =
  advance st (* opening quote *);
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> error st "unterminated string literal"
    | Some '"' -> advance st
    | Some '\\' -> (
      advance st;
      match peek st with
      | Some 'n' ->
        Buffer.add_char buf '\n';
        advance st;
        go ()
      | Some c ->
        Buffer.add_char buf c;
        advance st;
        go ()
      | None -> error st "unterminated escape")
    | Some c ->
      Buffer.add_char buf c;
      advance st;
      go ()
  in
  go ();
  Token.STRING (Buffer.contents buf)

let next_token ~negated st : Token.t =
  match peek st with
  | None -> Token.EOF
  | Some c -> (
    match c with
    | '(' -> advance st; Token.LPAREN
    | ')' -> advance st; Token.RPAREN
    | '{' -> advance st; Token.LBRACE
    | '}' -> advance st; Token.RBRACE
    | ',' -> advance st; Token.COMMA
    | ';' -> advance st; Token.SEMI
    | ':' -> advance st; Token.COLON
    | '.' -> advance st; Token.DOT
    | '+' -> advance st; Token.PLUS
    | '-' -> advance st; Token.MINUS
    | '*' -> advance st; Token.STAR
    | '/' -> advance st; Token.SLASH
    | '"' -> lex_string st
    | '?' ->
      let pos = position st in
      advance st;
      let start = st.offset in
      while (match peek st with Some c -> is_digit c | None -> false) do
        advance st
      done;
      if st.offset = start then error st "expected digits after '?'"
      else Token.STREAM_VAR (int_literal st pos start)
    | '=' -> (
      advance st;
      match peek st with
      | Some '=' -> (
        advance st;
        match peek st with
        | Some '>' ->
          advance st;
          Token.ARROW
        | _ -> Token.EQ)
      | _ -> Token.ASSIGN)
    | '!' -> (
      advance st;
      match peek st with
      | Some '=' ->
        advance st;
        Token.NEQ
      | _ -> Token.BANG)
    | '<' -> (
      advance st;
      match peek st with
      | Some '=' ->
        advance st;
        Token.LE
      | _ -> Token.LT)
    | '>' -> (
      advance st;
      match peek st with
      | Some '=' ->
        advance st;
        Token.GE
      | _ -> Token.GT)
    | '&' -> (
      advance st;
      match peek st with
      | Some '&' ->
        advance st;
        Token.AND
      | _ -> error st "expected '&&'")
    | '|' -> (
      advance st;
      match peek st with
      | Some '|' ->
        advance st;
        Token.OR
      | _ -> error st "expected '||'")
    | c when is_digit c -> lex_number ~negated st
    | c when is_ident_start c -> lex_ident st
    | c -> error st (Printf.sprintf "unexpected character %C" c))

(* Can a minus after this token be binary?  Only after an operand. *)
let ends_operand = function
  | Token.INT _ | FLOAT _ | STRING _ | STREAM_VAR _ | IDENT _ | RPAREN
  | KW_TRUE | KW_FALSE | KW_DONT_CARE | KW_TRUE_PRED | KW_NULL ->
    true
  | _ -> false

(* [acc] (newest first) ends with a unary minus. *)
let after_unary_minus = function
  | { token = Token.MINUS; _ } :: { token; _ } :: _ -> not (ends_operand token)
  | [ { token = Token.MINUS; _ } ] -> true
  | _ -> false

let tokenize src =
  let st = { src; offset = 0; line = 1; col = 1 } in
  let rec go acc =
    skip_trivia st;
    let pos = position st in
    let token = next_token ~negated:(after_unary_minus acc) st in
    let acc = { token; pos } :: acc in
    match token with Token.EOF -> List.rev acc | _ -> go acc
  in
  go []
