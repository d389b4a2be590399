(** A parallel map of a function over a batch on OCaml 5 domains.

    There is no standing pool: each {!map} call spawns its worker domains
    and joins them all before it returns.

    The threading model of the plan service: each batch item is processed
    entirely within one domain, so per-item state (a fresh [Search.t] with
    its memo) never crosses domains; only explicitly thread-safe structures
    ({!Plan_cache.t}) may be shared by the supplied function.  Work is
    distributed dynamically through a shared atomic cursor, so a batch of
    uneven optimization times still keeps every worker busy. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()], capped at 8 — the sweet spot for
    optimizer workloads whose working sets are memo-sized, not data-sized. *)

val map :
  ?jobs:int -> ?on_item:(worker:int -> unit) -> ('a -> 'b) -> 'a list -> 'b list
(** Order-preserving parallel map with [jobs] workers (default
    {!default_jobs}, capped at the batch size).  The calling domain counts
    as one worker: a call spawns [jobs - 1] domains and joins them before
    it returns, and [jobs:1] — or a batch of one — degenerates to
    [List.map] with no domain spawned.
    If [f] raises, remaining items are abandoned, all workers are joined,
    and the first exception observed is re-raised in the caller.

    [on_item ~worker] is called after each completed item, {e in the
    worker's domain}, with the worker's index (the calling domain is
    worker [0]) — the hook per-worker job-count telemetry hangs off.  It
    must be thread-safe; exceptions from it are treated like exceptions
    from [f]. *)
