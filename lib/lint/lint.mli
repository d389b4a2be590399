(** Static analysis of Prairie rule specifications.

    The linter runs five check families over a parsed spec and returns
    structured {!Prairie.Diagnostic.t} findings in the stable report
    order:

    - {b declaration analysis} (P001–P009): undeclared / unused
      properties and operations, arity mismatches, duplicate
      declarations, duplicate and shadowed rules, operators that no
      I-rule can ever implement;
    - {b binding analysis} (P010–P017): descriptors read before they are
      bound, unused named descriptors, stream variables that do not line
      up across the rewrite, unregistered helper functions, descriptor
      names that alias implicit stream descriptors, literals assigned to
      properties of another declared type;
    - {b classification conflicts} (P020–P023): COST properties assigned
      outside I-rule post sections or read in tests, I-rules that never
      cost their output, physical properties assigned on logical
      operator descriptors;
    - {b termination analysis} (P030–P031): unguarded self-inverse
      rewrites and unguarded rewrite cycles in the T-rule digraph;
    - {b enforcer sanity} (P040–P043): malformed [Null] I-rules and
      enforcer operators that cannot do their job.

    Warnings can be downgraded to [Info] with a source pragma:
    [// lint:allow P030 -- justification].  Pragmas never downgrade
    errors. *)

val catalogue : Prairie.Diagnostic.catalogue
(** Every diagnostic code the linter can emit, with its default severity
    and a one-line description.  [P000] is the syntax-error code used by
    {!lint_string} / {!lint_file} when parsing fails. *)

val check_spec :
  ?helpers:Prairie.Helper_env.t ->
  Prairie_dsl.Ast.spec ->
  Prairie.Diagnostic.t list
(** Run all check families over an already-parsed spec.  Helper-function
    checks (P015) run only when [helpers] is given.  The result is
    deduplicated and sorted ({!Prairie.Diagnostic.normalize}); the input
    spec is never modified. *)

val lint_string :
  ?helpers:Prairie.Helper_env.t -> string -> Prairie.Diagnostic.t list
(** Parse and lint a spec from source text.  Lex and parse failures
    become a single [P000] error carrying the failure position.
    [lint:allow] pragmas in the source are applied. *)

val lint_file :
  ?helpers:Prairie.Helper_env.t -> string -> Prairie.Diagnostic.t list
(** {!lint_string} on the contents of a file. *)

val allow_pragmas : string -> (string * int) list
(** The [(code, line)] pairs of every [lint:allow] pragma in the source,
    in order of appearance.  The pragma namespace is shared with
    {!Prairie_verify}: a [lint:allow P230] pragma downgrades the verifier's
    P230 warnings the same way. *)

val apply_pragmas : (string * int) list -> Prairie.Diagnostic.t list -> Prairie.Diagnostic.t list
(** Downgrade warnings whose code appears in the pragma list to [Info],
    recording the pragma line in the hint.  Errors are never downgraded.
    Exposed so other diagnostic producers (the semantic verifier) honor
    the same pragmas. *)

val summary : Prairie.Diagnostic.t list -> int * int * int
(** [(errors, warnings, infos)] counts. *)

(** {1 Shared spec utilities}

    Exposed for {!Prairie_analysis}, which analyzes the same parsed specs
    and must agree with the linter on elaboration, source positions and
    shape strings (the P008 / P320 split depends on both sides computing
    identical shapes). *)

val ruleset_of_spec : Prairie_dsl.Ast.spec -> Prairie.Ruleset.t
(** Best-effort elaboration of a parsed spec into a core rule set:
    well-formed rules only, unknown property types dropped.  Unlike
    {!Prairie_dsl.Elaborate.elaborate} it never raises — checkers run it
    on specs that still carry errors. *)

val rule_loc : Prairie_dsl.Ast.spec -> string -> Prairie.Diagnostic.span option
(** Source span of the named rule, when the spec records one. *)

val span_of : Prairie_dsl.Ast.loc -> Prairie.Diagnostic.span option

val pat_shape : Prairie.Pattern.t -> string
(** Operator shape of a pattern with stream variables erased to ["_"] —
    the node label of the termination digraph and the P008 equality key. *)

val tmpl_shape : Prairie.Pattern.tmpl -> string
(** Template shape; re-descriptored stream variables render as ["_!"]
    (they push a requirement, a different rewrite than a pass-through). *)

val is_tt : Prairie.Action.expr -> bool
(** Is the expression the literal [TRUE] test (an unguarded rule)? *)
