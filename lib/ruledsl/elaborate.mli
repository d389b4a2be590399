(** Elaboration of a parsed rule-specification into a Prairie rule set.

    {!Check} decides whether a spec is well-formed; {!build} packages it
    into a {!Prairie.Ruleset.t} that can be handed to the P2V
    pre-processor or the naive optimizer. *)

exception Elab_error of Prairie.Diagnostic.t list
(** The {!Check.errors} of a spec that is not well-formed: the same
    positioned diagnostics [prairiec lint] reports for it. *)

val build : ?helpers:Prairie.Helper_env.t -> Ast.spec -> Prairie.Ruleset.t
(** The rule set of a spec, checked or not: never raises.  Properties of
    an unknown type are dropped.  [helpers] defaults to
    {!Prairie.Helper_env.builtins}.  The checkers run it on specs that
    may still carry errors. *)

val elaborate :
  helpers:Prairie.Helper_env.t -> Ast.spec -> Prairie.Ruleset.t
(** {!build} a spec that {!Check.errors} accepts.
    @raise Elab_error with every error found. *)

val load_string :
  helpers:Prairie.Helper_env.t -> string -> Prairie.Ruleset.t
(** Parse and elaborate rule-specification source.
    @raise Elab_error, {!Parser.Parse_error} and {!Lexer.Lex_error}. *)
