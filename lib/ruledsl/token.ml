(* Tokens of the Prairie rule-specification language. *)

type t =
  | IDENT of string
  | INT of int
  | FLOAT of float
  | STRING of string
  | STREAM_VAR of int  (* ?1, ?2, ... *)
  (* keywords *)
  | KW_RULESET
  | KW_PROPERTY
  | KW_OPERATOR
  | KW_ALGORITHM
  | KW_TRULE
  | KW_IRULE
  | KW_PRE
  | KW_TEST
  | KW_POST
  | KW_TRUE
  | KW_FALSE
  | KW_DONT_CARE
  | KW_TRUE_PRED
  | KW_NULL
  (* punctuation and operators *)
  | LPAREN
  | RPAREN
  | LBRACE
  | RBRACE
  | COMMA
  | SEMI
  | COLON
  | DOT
  | ARROW  (* ==> *)
  | ASSIGN  (* = *)
  | EQ  (* == *)
  | NEQ  (* != *)
  | LE
  | GE
  | LT
  | GT
  | PLUS
  | MINUS
  | STAR
  | SLASH
  | AND
  | OR
  | BANG
  | EOF

let keyword_of_string = function
  | "ruleset" -> Some KW_RULESET
  | "property" -> Some KW_PROPERTY
  | "operator" -> Some KW_OPERATOR
  | "algorithm" -> Some KW_ALGORITHM
  | "trule" -> Some KW_TRULE
  | "irule" -> Some KW_IRULE
  | "pre" -> Some KW_PRE
  | "test" -> Some KW_TEST
  | "post" -> Some KW_POST
  | "TRUE" | "true" -> Some KW_TRUE
  | "FALSE" | "false" -> Some KW_FALSE
  | "DONT_CARE" -> Some KW_DONT_CARE
  | "TRUE_PRED" -> Some KW_TRUE_PRED
  | "NULL" -> Some KW_NULL
  | _ -> None

let to_string = function
  | IDENT s -> Printf.sprintf "identifier %S" s
  | INT i -> string_of_int i
  | FLOAT f -> string_of_float f
  | STRING s -> Printf.sprintf "%S" s
  | STREAM_VAR i -> Printf.sprintf "?%d" i
  | KW_RULESET -> "ruleset"
  | KW_PROPERTY -> "property"
  | KW_OPERATOR -> "operator"
  | KW_ALGORITHM -> "algorithm"
  | KW_TRULE -> "trule"
  | KW_IRULE -> "irule"
  | KW_PRE -> "pre"
  | KW_TEST -> "test"
  | KW_POST -> "post"
  | KW_TRUE -> "TRUE"
  | KW_FALSE -> "FALSE"
  | KW_DONT_CARE -> "DONT_CARE"
  | KW_TRUE_PRED -> "TRUE_PRED"
  | KW_NULL -> "NULL"
  | LPAREN -> "("
  | RPAREN -> ")"
  | LBRACE -> "{"
  | RBRACE -> "}"
  | COMMA -> ","
  | SEMI -> ";"
  | COLON -> ":"
  | DOT -> "."
  | ARROW -> "==>"
  | ASSIGN -> "="
  | EQ -> "=="
  | NEQ -> "!="
  | LE -> "<="
  | GE -> ">="
  | LT -> "<"
  | GT -> ">"
  | PLUS -> "+"
  | MINUS -> "-"
  | STAR -> "*"
  | SLASH -> "/"
  | AND -> "&&"
  | OR -> "||"
  | BANG -> "!"
  | EOF -> "end of input"
