(** Semantic rule verification: oracle-differential counterexample search
    with shrinking.

    Where {!Prairie_lint} catches syntactic problems (P0xx), this module
    hunts for {e semantic} ones: for each T-rule it generates random
    catalogs and expressions matching the rule's LHS pattern (through
    {!Prairie_workload.Generate}), applies the rule, and searches for
    divergences —

    - {b P200} the application crashes (a helper raised on values the
      guard let through);
    - {b P210} the rewrite, applied to a generated expression or one of
      its subterms, changes a cost-relevant property of the root
      descriptor ([attributes], [num_records], [tuple_size] by default):
      equivalent expressions must agree on these, or cost comparison
      between the two sides is meaningless;
    - {b P220} the Volcano search engine's best plan diverges in cost
      from the {!Prairie.Naive} exhaustive oracle on generated queries —
      the catch-all for broken cost functions and rules that violate the
      optimal-substructure assumption;
    - {b P230} a rewrite cycle whose guards all pass at run time: the
      static P030/P031 checks accept any syntactically non-trivial test,
      this one actually runs the loop;
    - {b P231} a rule whose self-application keeps strictly growing the
      expression (non-termination without the memo's protection);
    - {b P232} (info) no generated case ever exercised the rule.

    Counterexamples are shrunk — the smallest applicable redex is checked
    first, then catalog cardinalities are halved while the failure
    persists — and reported as {!Prairie.Diagnostic.t} values whose hints
    carry the master seed and per-case seed, so every witness regenerates
    exactly.  [lint:allow] pragmas downgrade P2xx warnings just as they
    do lint warnings (shared namespace, see {!Prairie_lint.Lint.with_pragmas}). *)

val catalogue : Prairie.Diagnostic.catalogue
(** Every diagnostic code the verifier can emit. *)

type config = {
  seed : int;  (** master seed; every case seed derives from it *)
  budget : int;  (** generated cases per T-rule (and oracle queries) *)
  oracle_forms : int;  (** naive-closure cap for best-plan comparison *)
  rules : string list;
      (** restrict verification to these T-rules; [[]] means all rules plus
          the oracle phase (a non-empty filter skips the oracle, which is a
          whole-rule-set property) *)
}

val default_config : config
(** seed 42, budget 10, oracle_forms 256, all rules.  Fixed, not
    configurable: 4 rule applications per case, a T-closure of at most 150
    forms when hunting redexes, cycles searched 4 rewrites deep, the
    invariants [attributes]/[num_records]/[tuple_size], and at most 40
    catalog-halving steps per counterexample. *)

type rule_report = {
  rule : string;  (** T-rule name, or ["<oracle>"] for the P220 phase *)
  cases : int;
  redexes : int;  (** rule applications checked (oracle: queries compared) *)
  counterexamples : int;
  shrink_steps : int;
}

type report = {
  ruleset : string;
  seed : int;
  diagnostics : Prairie.Diagnostic.t list;  (** normalized *)
  rules : rule_report list;
  rules_checked : int;
  cases_generated : int;
  counterexamples : int;
  shrink_steps : int;
}

val verify_ruleset :
  ?config:config -> (Prairie_catalog.Catalog.t -> Prairie.Ruleset.t) -> report
(** Verify a rule set given as a factory closing over a catalog (rule-set
    helpers are catalog-scoped, so each generated catalog needs its own
    instantiation).  Deterministic in [config.seed]; never mutates the
    rule sets the factory returns. *)

val verify_string : ?config:config -> string -> report
(** Parse, elaborate per generated catalog, verify.  A lex or parse
    failure is the single [P000] error of
    {!Prairie_lint.Lint.parse_source}; a spec that does not elaborate
    reports the {!Prairie_dsl.Elaborate.Elab_error} diagnostics as they are;
    [lint:allow] pragmas in the source are applied to the findings. *)
