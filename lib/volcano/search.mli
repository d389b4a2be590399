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

type exploration = [ `Worklist | `Rescan ]
(** How {!explore_group} drives its fixpoint.  [`Worklist] (the default)
    revisits only members inserted since the last round; [`Rescan] is the
    legacy whole-group rescan, kept as a differential-testing oracle.  Both
    apply the same rules to the same lexprs in the same order — the
    per-(lexpr, rule) tried-guard gates applications identically — so
    memos, plans and costs are bit-for-bit equal; only the iteration cost
    differs. *)

val log_src : Logs.src
(** Debug-level tracing of exploration, rule firings and winners; enable
    with [Logs.Src.set_level Search.log_src (Some Logs.Debug)]. *)

val create :
  ?pruning:bool ->
  ?group_budget:int ->
  ?exploration:exploration ->
  ?match_index:bool ->
  ?trace:Prairie_obs.Trace.t ->
  ?spans:Prairie_obs.Span.t ->
  Rule.ruleset ->
  t
(** A fresh search context with an empty memo.  [pruning] (default [true])
    enables branch-and-bound cost limits; disabling it is the
    [ablation-bounding] experiment.

    [match_index] (default [true]) consults the rule set's
    [rs_match_index] so each lexpr only tries trans rules whose LHS root
    operator can match it.  The skipped (lexpr, rule) pairs are exactly
    those whose match would bind nothing — they record no match, no trace
    event and no memo change either way — so matches, applications,
    stats, memo shape, costs and plans are byte-identical with the index
    on or off (property-tested in the equivalence harness); only the
    per-lexpr rule iteration shrinks.  [match_index:false] is the
    [ablation] / differential-testing configuration.

    [trace] attaches a structured event sink recording the whole search:
    group creation/merges, rule matches, applications and rejections with
    reasons, enforcer insertions, memo hits and winner changes (render
    with {!Explain.trace}).  When absent — the default — each potential
    event costs a single [Option] check and no allocation, so the
    instrumented engine stays within noise of the uninstrumented one.

    [spans] attaches a timed-span sink: the search is bracketed by an
    [Optimize] root span with nested [Explore]/[Match]/[Apply]/[Cost]/
    [Enforcer]/[Memo_insert] children carrying rule-name attribution
    (render with {!Explain.profile}, export with
    {!Prairie_obs.Span.to_chrome}).  Same disabled-path contract as
    [trace]: one [Option] check per site when absent.

    [group_budget] is the heuristic the paper's conclusion calls for
    ("extensibility must be judiciously coupled with user heuristics to
    avoid unpleasant surprises" — their E3/E4 runs exhausted virtual
    memory): once the memo holds that many equivalence classes,
    exploration stops generating new alternatives and the search degrades
    gracefully to the expressions found so far.  Plans remain valid and
    executable; optimality is no longer guaranteed. *)

val budget_was_hit : t -> bool
(** Did the group budget cap exploration at any point? *)

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
  ?span:Prairie_obs.Span.handle ->
  Memo.gid ->
  req:Prairie.Descriptor.t ->
  limit:float ->
  Plan.t option
(** The recursive entry point, exposed for tests and the bottom-up
    strategy.  [req] is restricted to the rule set's physical
    properties.  Under [pruning], plans costing more than [limit] are
    not returned.  [span] is the parent handle new spans nest under
    when a sink is attached. *)

val explore_group : t -> ?span:Prairie_obs.Span.handle -> Memo.gid -> unit
(** Saturate one group with transformation-rule applications (recursively
    exploring input groups needed by multi-level patterns).  Exposed for
    the bottom-up strategy, which explores eagerly instead of on demand. *)

val group_count : t -> int
(** Equivalence classes in the memo (Figure 14's metric). *)
