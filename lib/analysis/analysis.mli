(** Whole-rule-set dataflow analysis.

    Where {!Prairie_lint} checks each declaration and rule locally, this
    analyzer reasons about the {e rule set as a whole}, over the same
    elaborated ASTs the P2V translation consumes:

    - {b operator reachability} (P300): a fixpoint over the merged T-rules
      computes which operators a query built from the workload roots can
      ever contain; a rule whose LHS mentions an operator outside that
      closure can never fire;
    - {b constant tests} (P301/P302): sound constant folding
      ({!Prairie.Action.fold_const}) over rule tests — a test that folds
      to [FALSE] makes the rule dead, one that folds to [TRUE] is a
      redundant guard (the literal [TRUE] idiom is exempt);
    - {b property dataflow} (P310/P311): required physical properties
      (assignments to re-descriptored requirement descriptors) are checked
      against what enforcers and I-rule outputs can produce; argument
      properties assigned but never read anywhere are flagged;
    - {b pairwise subsumption and overlap} (P320/P321): a second-order
      pattern matcher finds T-rules strictly subsumed by a more general
      unguarded rule (generalizing lint's exact-shape P008), and unguarded
      critical pairs that rewrite the same redex divergently.

    Findings share the P-code namespace, the [// lint:allow Pxxx] pragma
    mechanism and the stable {!Prairie.Diagnostic.compare} report order
    with the linter and the verifier.  The analysis only reports: a dead
    rule stays in the Volcano rule set, where its test rejects every
    binding — see [docs/ANALYZE.md]. *)

val catalogue : Prairie.Diagnostic.catalogue
(** Every code the analyzer can emit ([P000] plus P3xx), with default
    severity and a one-line description. *)

type config = {
  roots : string list;
      (** workload root operators the reachability closure starts from;
          [[]] (the default) means every declared non-enforcer operator —
          the operators a query handed to the optimizer may contain *)
}

val default_config : config

type report = {
  ruleset : string;
  diagnostics : Prairie.Diagnostic.t list;
      (** deduplicated, in stable report order, pragmas applied *)
  reachable : string list;
      (** the operator reachability closure, sorted *)
  dead_rules : string list;
      (** T-rules whose test constant-folds to [FALSE] (P301) — the rules
          [Translate] drops from the Volcano rule set *)
  unreachable_rules : string list;  (** T-rules flagged P300 *)
  required_physical : string list;
      (** physical properties some rule requires of an input *)
  produced_physical : string list;
      (** physical properties enforcers or I-rule outputs can establish *)
}

val check_spec : ?config:config -> Prairie_dsl.Ast.spec -> report
(** Analyze an already-parsed spec.  Pragmas are NOT applied (there is no
    source to scan); use {!analyze_string} for that. *)

val analyze_string : ?config:config -> string -> report
(** Parse and analyze.  A lex or parse failure is the single [P000]
    error of {!Prairie_lint.Lint.parse_source}; [// lint:allow P3xx]
    pragmas downgrade warnings to [Info]. *)
