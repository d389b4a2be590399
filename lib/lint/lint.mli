(** Static analysis of Prairie rule specifications.

    The linter reports, over a parsed spec, in the stable report order:

    - {b well-formedness errors}: the {!Prairie_dsl.Check} errors, exactly
      the diagnostics {!Prairie_dsl.Elaborate.elaborate} refuses a spec
      with (P001, P003, P005–P007, P009, P010, P012, P015, P017–P019,
      P044), so a file with no lint error elaborates;
    - {b declaration warnings} (P002, P004, P008): unused properties and
      operations, rules that duplicate another rule's rewrite;
    - {b binding warnings} (P011, P013, P014, P016): unused named
      descriptors, dropped or twice-bound stream variables, descriptor
      names that alias implicit stream descriptors;
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
    and a one-line description.  [P000] is the syntax-error code of
    {!parse_source}. *)

val check_spec :
  ?helpers:Prairie.Helper_env.t ->
  Prairie_dsl.Ast.spec ->
  Prairie.Diagnostic.t list
(** Run all check families over an already-parsed spec; the P2V-level
    families run on its {!Prairie_dsl.Elaborate.build} rule set.
    Helper-function checks (P015) run only when [helpers] is given.  The result is
    deduplicated and sorted ({!Prairie.Diagnostic.normalize}); the input
    spec is never modified. *)

val lint_string :
  ?helpers:Prairie.Helper_env.t -> string -> Prairie.Diagnostic.t list
(** Parse and lint a spec from source text: {!parse_source}, then
    {!check_spec}, then {!with_pragmas}. *)

val parse_source : string -> (Prairie_dsl.Ast.spec, Prairie.Diagnostic.t) result
(** Parse a spec from source text.  A lex or parse failure is the single
    [P000] "lexical error" / "parse error" carrying the failure position —
    the one parse path of the linter, the analyzer and the verifier. *)

val with_pragmas : string -> Prairie.Diagnostic.t list -> Prairie.Diagnostic.t list
(** Apply the source's [lint:allow] pragmas, then
    {!Prairie.Diagnostic.normalize}.  A pragma downgrades warnings with its
    code to [Info], recording the pragma line in the hint; errors are
    never downgraded.  The pragma namespace is shared: a
    [lint:allow P230] pragma downgrades the verifier's P230 warnings the
    same way. *)

val allow_pragmas : string -> (string * int) list
(** The [(code, line)] pairs of every [lint:allow] pragma in the source,
    in order of appearance. *)

val summary : Prairie.Diagnostic.t list -> int * int * int
(** [(errors, warnings, infos)] counts. *)

(** {1 Shared spec utilities}

    Exposed for {!Prairie_analysis}, which analyzes the same parsed specs
    and must agree with the linter on source positions and shape strings
    (the P008 / P320 split depends on both sides computing identical
    shapes). *)

val rule_loc : Prairie_dsl.Ast.spec -> string -> Prairie.Diagnostic.span option
(** Source span of the named rule, when the spec records one. *)

val pat_shape : Prairie.Pattern.t -> string
(** Operator shape of a pattern with stream variables erased to ["_"] —
    the node label of the termination digraph and the P008 equality key. *)

val tmpl_shape : Prairie.Pattern.tmpl -> string
(** Template shape; re-descriptored stream variables render as ["_!"]
    (they push a requirement, a different rewrite than a pass-through). *)

val is_tt : Prairie.Action.expr -> bool
(** Is the expression the literal [TRUE] test (an unguarded rule)? *)
