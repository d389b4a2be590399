(** The search-observability sink: hierarchical timed spans with per-rule
    attribution, and the search's events as instants inside them.

    A sink is one bounded ring buffer holding completed spans and instant
    events in the order they were recorded, plus an exact per-(phase,
    rule) aggregate table that survives ring wrap-around.  When the ring
    is full the oldest entry is dropped and counted, so a sink can stay
    attached to an arbitrarily long search with bounded memory.

    Parents are explicit handles threaded by the caller — there is no
    global mutable "current span".  Sinks are safe to share across
    domains: enter, exit, emit, reads and clear all hold the sink's
    internal mutex, so concurrent emitters never lose entries, tear
    counters, or corrupt the aggregate table.  A {e handle} tree is
    single-domain: open and close any given span, and emit events
    under it, from the same domain.

    Span ids and event sequence numbers come from one per-sink counter,
    so they order every enter and emit the sink saw.  Timestamps are
    wall-clock nanoseconds made strictly monotonic per sink (OCaml 5.1
    ships no stdlib monotonic clock; readings that do not advance are
    bumped by 1 ns). *)

type phase =
  | Optimize  (** a whole [Search.optimize] run *)
  | Explore  (** worklist fixpoint over one group *)
  | Match  (** T-rule pattern match against one lexpr *)
  | Apply  (** T-rule condition + template build + memo insertion *)
  | Cost  (** one implementation-rule costing, inputs included *)
  | Enforcer  (** enforcer insertion + relaxed re-optimization *)
  | Memo_insert  (** gtree/expression insertion into the memo *)

val phase_label : phase -> string

(** {1 Events}

    The vocabulary mirrors the Volcano engine: groups appearing and
    merging in the memo, transformation/implementation rules being
    matched, applied, or rejected {e with a reason}, enforcer insertions,
    memo hits, and winner changes with the old and new cost: the
    timeline of a search, to export with {!to_jsonl} or {!to_chrome}.
    The exact per-rule counts ("why did rule X never fire") are the
    search's own statistics, not a replay of this ring (see [Stats] and
    [Explain.trace] in [prairie_volcano]). *)

(** Why a matched rule did not produce a plan. *)
type reason =
  | Test_failed  (** the rule's condition code rejected the binding *)
  | Pruned of float
      (** branch-and-bound: an input found no plan within the remaining
          cost limit (the annotation), or none was left to spend.  An
          input with no plan at all is reported the same way, with an
          infinite limit. *)

type event =
  | Group_created of { gid : int }
  | Groups_merged of { survivor : int; dead : int }
  | Trans_matched of { rule : string; gid : int; bindings : int }
  | Trans_applied of { rule : string; gid : int; fresh : bool }
  | Trans_rejected of { rule : string; gid : int; reason : reason }
  | Impl_matched of { rule : string; gid : int }
  | Impl_applied of { rule : string; gid : int }
  | Impl_rejected of { rule : string; gid : int; reason : reason }
  | Enforcer_inserted of { alg : string; gid : int }
  | Memo_hit of { gid : int }
  | Winner_changed of {
      gid : int;
      alg : string;
      old_cost : float option;  (** [None]: first winner for the group *)
      new_cost : float;
    }
  | Budget_hit of { groups : int }
      (** emitted once, when exploration first hits the group budget *)

val kind : event -> string
(** Stable lowercase tag, e.g. ["trans_applied"] — the ["event"] field of
    the JSON encoding. *)

(** {1 The sink} *)

type handle
(** An open span. Valid until passed to {!exit}; handles are cheap
    records, never stored by the sink. *)

type record = {
  id : int;
  parent : int;  (** [id] of the parent span, [-1] for roots *)
  phase : phase;
  rule : string option;
  domain : int;  (** integer id of the domain that closed the span *)
  start_ns : int64;
  dur_ns : int64;
  self_ns : int64;  (** [dur_ns] minus the sum of direct children *)
  minor_words : float;
  major_words : float;
}

type instant = {
  seq : int;  (** from the counter that also numbers spans *)
  at_ns : int64;  (** the sink's clock at emission *)
  span : int;
      (** [id] of the innermost open span at the emission site, [-1]
          when none is open *)
  event : event;
}

type agg = {
  a_phase : phase;
  a_rule : string option;
  mutable a_count : int;
  mutable a_total_ns : int64;
  mutable a_self_ns : int64;
  mutable a_minor_words : float;
  mutable a_major_words : float;
}

type t

val create : ?capacity:int -> unit -> t
(** [capacity] bounds the ring (default 65536, min 1) over spans and
    events together; the aggregate table is exact regardless of drops. *)

val capacity : t -> int

val enter : t -> ?rule:string -> ?parent:handle -> phase -> handle
val exit : t -> handle -> unit
(** [exit t h] closes [h]: computes duration and GC-word deltas,
    charges the duration to the parent handle's children sum, appends
    a {!record}, and folds into the aggregate table. Call exactly once
    per handle, children strictly before parents. *)

val emit : t -> ?span:handle -> event -> unit
(** Record one event as an {!instant} inside [span] (the innermost open
    span at the emission site; omitted when none is open). *)

val span_count : t -> int
(** Spans completed over the sink's lifetime, dropped ones included. *)

val event_count : t -> int
(** Events emitted over the sink's lifetime, dropped ones included. *)

val length : t -> int
(** Entries (spans and events) currently retained. *)

val dropped : t -> int
(** Entries lost to the ring bound. *)

val records : t -> record list
(** Retained spans, oldest first (completion order). *)

val events : t -> instant list
(** Retained events, oldest first. *)

val clear : t -> unit

val root_total_ns : t -> int64
(** Summed duration of parentless spans — the profiled wall total. *)

val root_count : t -> int

val profile : t -> agg list
(** Exact per-(phase, rule) aggregates, sorted by self time
    descending. *)

(** {1 Export} *)

val event_to_json : instant -> string
(** One event as a single-line JSON object:
    [{"seq":12,"span":7,"event":"trans_applied","rule":"join-assoc","gid":3}]. *)

val to_jsonl : t -> string
(** Retained events as JSON lines (newline after every event). *)

val to_chrome : t -> string
(** Chrome trace-event JSON: spans as ["X"] complete events, events as
    thread-scoped ["i"] instant events carrying their JSON object under
    [args]; µs timestamps rebased to the earliest retained entry.  Opens
    in Perfetto and chrome://tracing. *)
