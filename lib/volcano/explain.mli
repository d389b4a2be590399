(** EXPLAIN-style rendering of access plans.

    A human-oriented tree view of a plan with the information an engineer
    asks of an optimizer: per-node algorithm, the predicate or attribute it
    was parameterized with, estimated cardinality, delivered order, and
    cumulative cost — all read out of the descriptors the rules computed. *)

val pp : Format.formatter -> Plan.t -> unit
(** Multi-line tree, e.g.:
    {v
    Pointer_join                 cost=42.11  rows=6  order=sorted(C1.oid)
    ├─ Merge_sort                cost=8.49   rows=6  order=sorted(C1.oid)
    │  └─ Index_scan [C1.bC1 = 3]  cost=8.39 rows=6
    │     └─ C1                  rows=1278
    └─ File_scan                 cost=33.49  rows=1143
       └─ C2                     rows=1143
    v} *)

val to_string : Plan.t -> string

val summary : Plan.t -> string
(** One line: total cost, result cardinality, algorithms used. *)

val trace : Format.formatter -> Search.t -> unit
(** The per-rule account of a search, read from its {!Stats.t}: how
    often each transformation and implementation rule matched, applied,
    and was rejected — with the rejection reasons (test failed / pruned by
    cost limit) — plus group, memo-hit, enforcer and winner-change totals.
    A transformation rule's applications are split into fresh ones (the
    RHS added an expression to the memo) and duplicates (the memo already
    held it).  Rules that matched but never applied are called out
    explicitly: this is the "why did rule X never fire" answer.  The
    account is exact whatever the span sink's capacity; the header counts
    the events the sink (if any) recorded and dropped. *)

val profile : Format.formatter -> Prairie_obs.Span.t -> unit
(** The per-(phase, rule) time-attribution table of a span sink (see
    {!Search.create}[ ~spans]): count, total and self milliseconds
    (self excludes nested spans), share of the rooted total, and minor
    allocation kilowords, sorted by self time.  Aggregates are exact
    even when the ring dropped spans, and the header counts spans only
    (events share the ring); the rooted total is the
    summed duration of parentless spans — within clock resolution of
    the wall time the caller measured around the search. *)
