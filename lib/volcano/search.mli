(** The Volcano search engine: top-down, memoized, branch-and-bound.

    [FindBestPlan] in the paper's terminology: optimizing a group under a
    required physical-property vector first saturates the group with
    transformation-rule applications (exploration), then costs every
    applicable implementation rule — optimizing inputs on demand with
    shrinking cost limits — and every applicable enforcer.  Results are
    memoized per (group, required properties).

    The search is sequential, and a context belongs to one domain (see
    {!Memo}); run concurrent queries on separate contexts. *)

type t

val create :
  ?group_budget:int ->
  ?spans:Prairie_obs.Span.t ->
  Rule.ruleset ->
  t
(** A fresh search context with an empty memo.  The search is always
    branch-and-bound; {!Bottom_up.optimize} is the exhaustive DP over the
    same rules and memo, and the test suite checks that the two find plans
    of equal cost.

    An operator lexpr only tries the trans rules rooted at its operator
    (the rule set's [rs_match_index]); a stored file tries none, since
    every trans rule is operator-rooted.  The skipped (lexpr, rule) pairs
    are exactly those whose match would bind nothing, so the search is
    byte-identical to a full scan of [rs_trans] (property-tested in the
    test suite).

    Every search fills its {!Stats.t}, sink or no sink: the counters and
    the per-rule accounts (matches, bindings, applications, fresh RHSs,
    rejections by test and by cost limit) that {!Explain.trace} renders.

    [spans] attaches the observability sink: the search is bracketed by
    an [Optimize] root span with nested [Explore]/[Match]/[Apply]/[Cost]/
    [Enforcer]/[Memo_insert] children carrying rule-name attribution
    (render with {!Explain.profile}), and every search event — group
    creation/merges, rule matches, applications and rejections with
    reasons, enforcer insertions, memo hits and winner changes — is
    recorded inside the innermost open span, as a timeline to export
    with {!Prairie_obs.Span.to_chrome} or {!Prairie_obs.Span.to_jsonl}.
    When absent — the default — each site is one match on the sink that
    builds and allocates nothing.

    [group_budget] is the heuristic the paper's conclusion calls for
    ("extensibility must be judiciously coupled with user heuristics to
    avoid unpleasant surprises" — their E3/E4 runs exhausted virtual
    memory): once the memo holds that many equivalence classes,
    exploration stops generating new alternatives and the search degrades
    gracefully to the expressions found so far.  Plans remain valid and
    executable; optimality is no longer guaranteed. *)

val budget_was_hit : t -> bool
(** Did the group budget cap exploration at any point? *)

val budget_hit_at : t -> int option
(** The memo's group count when the budget first capped exploration. *)

val ruleset : t -> Rule.ruleset
val memo : t -> Memo.t
val stats : t -> Stats.t

val spans : t -> Prairie_obs.Span.t option
(** The span sink passed to {!create}, if any. *)

val restrict_req : t -> Prairie.Descriptor.t -> Prairie.Descriptor.t
(** [Rule.restrict_physical] memoized per descriptor in this context (the
    projection of a requirement onto the rule set's physical properties is
    recomputed constantly along the search recursion). *)

val optimize :
  ?required:Prairie.Descriptor.t -> t -> Prairie.Expr.t -> Plan.t option
(** Optimize an initialized operator tree: insert it into the memo and find
    the cheapest access plan delivering the required physical properties
    (default: none).  [None] means no plan exists. *)

val optimize_group :
  t ->
  Memo.gid ->
  req:Prairie.Descriptor.t ->
  limit:float ->
  Plan.t option
(** The recursive entry point, exposed for tests of the cost limit.
    [req] is restricted to the rule set's physical properties.  Plans
    costing more than [limit] are not returned. *)

val explore_group : t -> Memo.gid -> unit
(** Saturate one group with transformation-rule applications (recursively
    exploring input groups needed by multi-level patterns).  Exposed for
    the bottom-up strategy, which explores eagerly instead of on demand. *)

val group_count : t -> int
(** Equivalence classes in the memo (Figure 14's metric). *)
