(** Ready-to-use optimizers.

    Packages a Volcano rule set with its query-preparation step (stripping
    root enforcer-operators into required physical properties) under a
    common interface, so benchmarks, examples and tests can drive the two
    §4 contestants — the P2V-generated Prairie optimizer and the hand-coded
    Volcano optimizer — interchangeably. *)

type t = {
  name : string;
  volcano : Prairie_volcano.Rule.ruleset;
  prepare : Prairie.Expr.t -> Prairie.Expr.t * Prairie.Descriptor.t;
}

type outcome = {
  plan : Prairie_volcano.Plan.t option;
  cost : float;  (** infinity when no plan exists *)
  search : Prairie_volcano.Search.t;  (** memo and statistics *)
}

val of_ruleset : string -> Prairie.Ruleset.t -> t
(** [of_ruleset name rs] runs a Prairie rule set through P2V: the
    optimizer called [name] searches the Volcano rules P2V generates and
    prepares queries as P2V's translation does. *)

val oodb_prairie : Prairie_catalog.Catalog.t -> t
(** The Open OODB rule set written in Prairie and run through P2V
    ("Prairie" in the paper's Figures 10–13). *)

val oodb_volcano : Prairie_catalog.Catalog.t -> t
(** The hand-coded Volcano rule set ("Volcano" in the same figures). *)

val relational : Prairie_catalog.Catalog.t -> t
(** The §2 relational optimizer, via P2V. *)

val relational_ruleset : Prairie_catalog.Catalog.t -> Prairie.Ruleset.t
val oodb_ruleset : Prairie_catalog.Catalog.t -> Prairie.Ruleset.t

val optimize :
  ?group_budget:int ->
  ?search_jobs:int ->
  ?required:Prairie.Descriptor.t ->
  ?spans:Prairie_obs.Span.t ->
  t ->
  Prairie.Expr.t ->
  outcome
(** Prepare the query, run the search from a fresh memo and return the
    best plan with the search context (for group counts and rule-match
    statistics).

    [search_jobs] is ignored: exploration is sequential.  The benchmark
    in [perfbench/] still passes it; a later benchmark revision removes
    it.

    [spans] attaches the observability sink to the search: timed spans
    with per-rule attribution and the search's events inside them (see
    {!Prairie_volcano.Search.create}, {!Prairie_volcano.Explain.trace},
    {!Prairie_volcano.Explain.profile} and `prairiec trace`).  It
    defaults to off, with one [Option] check of overhead.  Service
    telemetry ([metrics], [slow_log]) belongs to {!serve}. *)

(** {1 The parallel plan service}

    Batch optimization on OCaml 5 domains ({!Pool.map} spawns them per
    batch and joins them before returning) with a shared fingerprint-keyed
    plan cache.  Each worker owns a private [Search.t]
    (the memo never crosses domains); the {!Prairie_service.Plan_cache.t}
    is the only shared structure.  Within one batch, requests with equal
    fingerprints are optimized once. *)

module Plan_cache = Prairie_service.Plan_cache
module Pool = Prairie_service.Pool

type request = {
  expr : Prairie.Expr.t;
  required : Prairie.Descriptor.t;  (** extra required physical properties *)
}

val request : ?required:Prairie.Descriptor.t -> Prairie.Expr.t -> request

type served = {
  request : request;
  fingerprint : string;
      (** of the prepared query + merged requirement — the cache key *)
  plan : Prairie_volcano.Plan.t option;
  cost : float;  (** infinity when no plan exists *)
  cache_hit : bool;
      (** resolved without running a search of its own (cache hit, or a
          duplicate fingerprint earlier in the same batch) *)
  groups : int;  (** memo size of the search that produced the plan *)
  budget_hit : bool;  (** that search hit [group_budget] and degraded *)
}

val serve :
  ?group_budget:int ->
  ?jobs:int ->
  ?search_jobs:int ->
  ?cache:Plan_cache.t ->
  ?metrics:Prairie_obs.Metrics.t ->
  ?slow_log:Prairie_obs.Slow_log.t ->
  t ->
  request list ->
  served list
(** Optimize a batch, in request order.  [jobs] is the worker count
    (default {!Pool.default_jobs}; [1] is fully sequential); each worker
    runs one sequential search at a time.  [search_jobs] is ignored, as
    for {!optimize}.  [cache] is
    consulted before and populated after every search; omitting it still
    deduplicates within the batch.  [group_budget] is the per-request
    budget: an over-large query degrades gracefully instead of stalling a
    worker (see {!Prairie_volcano.Search.create}).

    [metrics] records service telemetry into the given registry (all
    labelled with the rule-set name; see docs/OBSERVABILITY.md):
    request/search/cache-served counters, the last batch's dedup ratio,
    per-search and per-batch latency histograms
    ([prairie_serve_search_seconds], [prairie_serve_batch_seconds]),
    per-worker job counts ([prairie_pool_worker_jobs_total]) and — when
    [cache] is supplied — plan-cache size/hit-rate gauges.

    [slow_log] records every fresh search whose latency meets the log's
    threshold (the log locks internally, so pool workers record safely);
    the telemetry endpoint's [/tracez] serves its recent entries. *)
