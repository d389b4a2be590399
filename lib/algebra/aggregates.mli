(** An aggregation add-on rule set: group-and-count.

    A small rule-set {e fragment} meant to be combined with the relational
    optimizer via {!Prairie.Ruleset.combine} — §6's rule-set combination in
    earnest.  One operator, AGG (group by a list of attributes, count each
    group), and two implementations showing the classic enforcer-driven
    trade-off:

    - [Hash_agg]: any input order, pays hash build/probe per tuple,
      delivers no order;
    - [Sort_agg]: {e requires} its input sorted on the group attributes
      (the SORT enforcer or an order-delivering scan provides it), counts
      group boundaries on the fly, and delivers the group order for free.

    The count column appears in the output as the synthetic attribute
    [agg.count].

    The rules are written once, in [rules/aggregates.prairie]: the library
    embeds that file at build time and parses it when it is initialized. *)

val count_attr : Prairie_value.Attribute.t
(** The synthetic output attribute [agg.count]. *)

val fragment : Prairie_catalog.Catalog.t -> Prairie.Ruleset.t
(** The elaborated [rules/aggregates.prairie]: 1 T-rule
    ([sort_intro_agg]) and 4 I-rules ([agg_hash], [agg_sort], and copies of
    the relational [sort_merge_sort] and [sort_null], so that SORT is
    implementable and the fragment is a valid rule set on its own). *)

val extended_relational : Prairie_catalog.Catalog.t -> Prairie.Ruleset.t
(** [Ruleset.combine] of {!Relational.ruleset} and {!fragment}, which
    drops the fragment's copies of the SORT I-rules. *)

val agg :
  Prairie_catalog.Catalog.t ->
  by:Prairie_value.Attribute.t list ->
  Prairie.Expr.t ->
  Prairie.Expr.t
(** The initialized AGG operator tree: estimated output cardinality is the
    (saturating) product of the group attributes' distinct counts. *)
