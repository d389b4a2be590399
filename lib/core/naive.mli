(** Naive exhaustive optimizer — the correctness oracle.

    This module implements Prairie's optimization semantics by brute force:
    the closure of all T-rule applications at every position gives the full
    logical search space, and recursive enumeration of I-rule choices gives
    every access plan.  It is exponential and only usable on small queries,
    which is exactly its purpose: the Volcano search engine (and the
    P2V-translated rule sets) are tested against it — both must find plans
    of equal cost. *)

type result = {
  plan : Expr.t;  (** an access plan: all interior nodes are algorithms *)
  cost : float;
}

val logical_forms : ?max_forms:int -> Ruleset.t -> Expr.t -> Expr.t list
(** All operator trees reachable from the input by T-rule applications at
    any node, including the input itself; deduplicated structurally.
    Enumeration stops silently at [max_forms] (default 20000). *)

val plans :
  ?max_forms:int -> Ruleset.t -> required:Descriptor.t -> Expr.t -> Expr.t list
(** The access plans for the query, one per distinct root descriptor: for
    each logical form, every way of choosing I-rules top-down, keeping the
    first plan found for each descriptor — of the whole query and of every
    sub-problem.  This loses no cost: a parent's post-opt statements read
    only its inputs' descriptors (achieved properties and cost), so two
    input plans with one descriptor give the parent the same descriptor,
    and no assumption that cost grows with the inputs' costs is needed.
    It keeps the enumeration's size bounded by the number of distinct
    descriptors instead of the product of every input's plan count.
    [required] contains the properties requested of the query result
    (e.g. a [tuple_order]); it is merged into the root descriptor. *)

val best_plan :
  ?max_forms:int -> Ruleset.t -> required:Descriptor.t -> Expr.t -> result option
(** The cheapest of {!plans} (the first among equals), [None] when no plan
    exists.  It is the cheapest of all access plans, too: the plans
    {!plans} drops never beat the one kept for their descriptor. *)

val plan_count :
  ?max_forms:int -> Ruleset.t -> required:Descriptor.t -> Expr.t -> int
