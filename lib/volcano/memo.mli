(** The memo: equivalence classes of logical expressions.

    Volcano's search-space representation.  A {e group} (equivalence class)
    collects logical expressions that produce the same stream; a logical
    expression ({e lexpr}) is an operator applied to input groups, or a
    stored file.  Duplicate logical expressions are detected globally; when
    a duplicate is found while inserting into a different group, the two
    groups are proven equal and merged (union–find).

    The number of live groups after optimization is the "number of
    equivalence classes" reported in the paper's Figure 14.

    A memo belongs to one domain: every operation, reads included, may
    mutate it (union–find path compression, the winner store), and none
    takes a lock.  The same holds for a {!Search.t}, which owns its memo.
    Concurrent searches each need their own. *)

type gid = int
(** Group identifier.  Always pass through {!canonical} after merges. *)

type lnode =
  | L_op of string  (** abstract operator *)
  | L_file of string  (** stored file leaf *)

type lexpr = {
  id : int;  (** unique per memo *)
  node : lnode;
  arg : Prairie.Descriptor.t;  (** the operator's descriptor *)
  inputs : gid array;
}

(** Trees over groups: the shape a transformation-rule RHS instantiates
    into before insertion. *)
type gtree =
  | Gleaf of gid
  | Gnode of string * Prairie.Descriptor.t * gtree list

type t

val create :
  ?stats:Stats.t ->
  ?trace:Prairie_obs.Trace.t ->
  ?spans:Prairie_obs.Span.t ->
  unit ->
  t
(** [trace] receives [Group_created] / [Groups_merged] events; [spans]
    receives [Memo_insert] timing spans around tree insertions.  When
    absent (the default) the only per-event cost is one [Option]
    check. *)

val stats : t -> Stats.t

val spans : t -> Prairie_obs.Span.t option

val canonical : t -> gid -> gid

val group_desc : t -> gid -> Prairie.Descriptor.t
(** Logical annotations shared by the group (attributes, cardinality, ...):
    what a stream variable's descriptor [Di] binds to. *)

val lexprs : t -> gid -> lexpr list
(** Current members of the group, newest first.  O(1): returns the stored
    member list without copying. *)

val insert_file : t -> string -> Prairie.Descriptor.t -> gid
(** Group holding a stored-file leaf (idempotent per file name+descriptor). *)

val insert_expr : t -> ?span_parent:Prairie_obs.Span.handle -> Prairie.Expr.t -> gid
(** Insert an initial operator tree bottom-up; group descriptors are taken
    from node descriptors.  [span_parent] nests the [Memo_insert] span
    (when a sink is attached) under the caller's span.
    @raise Invalid_argument on algorithm nodes. *)

val insert_gtree :
  t -> ?into:gid -> ?span_parent:Prairie_obs.Span.handle -> gtree -> gid * bool
(** Insert a rule-output tree.  [into] forces the root into an existing
    group (merging groups if the root lexpr already lives elsewhere).
    Returns the root's group and whether any {e new} lexpr was created. *)

val group_count : t -> int
(** Number of live (canonical) groups — Figure 14's metric. *)

val lexpr_count : t -> int
(** Number of distinct logical expressions in the memo. *)

val groups : t -> gid list
(** All live group ids. *)

(** {1 Per-group search bookkeeping} *)

val is_explored : t -> gid -> bool
val set_explored : t -> gid -> bool -> unit
val is_exploring : t -> gid -> bool
val set_exploring : t -> gid -> bool -> unit

val rule_tried : t -> lexpr -> int -> bool
(** Has the (lexpr, trans-rule) pair already been processed?  Rules are
    identified by a small integer id — their position in the rule set's
    [rs_trans] list (assigned by {!Search.create}) — so the guard probe
    hashes two ints instead of a rule-name string. *)

val mark_rule_tried : t -> lexpr -> int -> unit

(** Winners of [find_best_plan] memoization: keyed by required physical
    properties. *)

type winner = {
  plan : Plan.t option;  (** [None]: searched and failed *)
  cost : float;  (** plan cost, or infinity *)
  searched_limit : float;  (** the cost limit the search ran under *)
}

val find_winner : t -> gid -> Prairie.Descriptor.t -> winner option
(** O(1) probe of the winner store, keyed by (group, epoch, required
    descriptor): a merge invalidates a group's winners by bumping its
    epoch instead of resetting a table.  Counts into
    [Stats.winner_probes]/[Stats.winner_hits]. *)

val set_winner : t -> gid -> Prairie.Descriptor.t -> winner -> unit
val clear_winners : t -> unit

val pp : Format.formatter -> t -> unit
