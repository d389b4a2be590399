(** Elaboration of a parsed rule-specification into a Prairie rule set.

    Checks declarations (known property types, no duplicate names,
    operator/algorithm arities respected by every rule, helper functions
    registered) and packages everything into a {!Prairie.Ruleset.t} that
    can be handed to the P2V pre-processor or the naive optimizer. *)

exception Elab_error of string list

val elaborate :
  helpers:Prairie.Helper_env.t -> Ast.spec -> Prairie.Ruleset.t
(** @raise Elab_error with every problem found. *)

val load_string :
  helpers:Prairie.Helper_env.t -> string -> Prairie.Ruleset.t
(** Parse and elaborate rule-specification source.
    @raise Elab_error, {!Parser.Parse_error} and {!Lexer.Lex_error}. *)
