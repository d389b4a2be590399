(** Recursive-descent parser for the Prairie rule-specification language.

    Grammar (EBNF):
    {v
    spec      ::= "ruleset" IDENT ";" decl*
    decl      ::= "property" IDENT ":" IDENT ";"
                | "operator" IDENT "(" INT ")" ";"
                | "algorithm" IDENT "(" INT ")" ";"
                | ("trule" | "irule") IDENT ":"
                      pattern "==>" template section*
    pattern   ::= IDENT "(" pat ("," pat)* ")" ":" IDENT
    pat       ::= "?" INT | pattern
    template  ::= IDENT "(" tmpl ("," tmpl)* ")" ":" IDENT
    tmpl      ::= "?" INT (":" IDENT)? | template
    section   ::= "pre" "{" stmt* "}"
                | "test" "{" expr "}"
                | "post" "{" stmt* "}"
    stmt      ::= IDENT ("." IDENT)? "=" expr ";"
    expr      ::= disjunctions over "&&", "||", comparisons
                  ("==", "!=", "<", "<=", ">", ">="), "+", "-", "*", "/",
                  unary "!" and "-", calls IDENT "(" args ")", descriptor
                  properties IDENT "." IDENT, bare descriptors IDENT, and
                  the literals INT, "-" INT, FLOAT, "-" FLOAT, STRING,
                  TRUE, FALSE, DONT_CARE, TRUE_PRED, NULL.
    v}

    A unary minus directly on a numeric literal is part of the literal:
    [-5] is the constant [-5], and [-4611686018427387904] is [min_int].
    A minus on anything else ([-(5)], [-x]) is the negation operator.

    In a T-rule, [pre]/[post] are the pre-test and post-test statement
    lists; in an I-rule they are pre-opt and post-opt. *)

exception Parse_error of Lexer.position * string

val parse : string -> Ast.spec
(** @raise Parse_error and {!Lexer.Lex_error} on malformed input. *)
