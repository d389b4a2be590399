(** Helper functions for rule actions.

    The paper's rules call helpers such as [is_associative], [cardinality]
    and [union] (§2.3).  This module provides the full helper vocabulary of
    both concrete algebras, closed over a catalog for statistics.  The same
    typed OCaml functions are exported directly (sub-module {!F}) so the
    hand-coded Volcano rule set computes identical values. *)

module F : sig
  (** Typed forms, shared with hand-coded Volcano rules. *)

  val union_attrs :
    Prairie_value.Attribute.t list ->
    Prairie_value.Attribute.t list ->
    Prairie_value.Attribute.t list
  (** Sorted, duplicate-free union — canonical attribute lists make
      logically-equal descriptors structurally equal, which the memo's
      duplicate detection relies on.  A linear merge when both inputs are
      strictly sorted by [Attribute.compare], a sort otherwise; the result
      is the same either way. *)

  val pred_refs_only :
    Prairie_value.Predicate.t -> Prairie_value.Attribute.t list -> bool
  (** Does the predicate reference only attributes of the list? *)

  val pred_refs_any :
    Prairie_value.Predicate.t -> Prairie_value.Attribute.t list -> bool
  (** Does the predicate reference some attribute of the list? *)

  val attrs_subset :
    Prairie_value.Attribute.t list -> Prairie_value.Attribute.t list -> bool
  (** Is every attribute of the first list in the second? *)

  val canonical_and :
    Prairie_value.Predicate.t ->
    Prairie_value.Predicate.t ->
    Prairie_value.Predicate.t
  (** Conjunction in canonical form (conjuncts sorted, deduplicated) so that
      predicates merged along different rewriting paths compare equal.
      What the [and_pred] helper computes. *)

  val join_order :
    Prairie_value.Predicate.t ->
    Prairie_value.Attribute.t list ->
    Prairie_value.Order.t
  (** Sort order on one join input that enables a merge join: the
      equality-pair attributes belonging to that input's attribute set.
      The rule files call it as [lhs_join_order] on the left input's
      attributes and [rhs_join_order] on the right's. *)

  val is_ref_join : Prairie_catalog.Catalog.t -> Prairie_value.Predicate.t -> bool
  (** Does some equality pair follow an inter-object reference (a ref
      attribute equated with an attribute of its target class)?  The
      applicability test of Pointer_join. *)

  val indexed_selection :
    Prairie_value.Predicate.t -> Prairie_value.Attribute.t list -> bool
  (** Does the selection predicate contain an equality-with-constant
      conjunct on one of the indexed attributes?  The applicability test of
      Index_scan. *)

  val index_order :
    Prairie_value.Predicate.t ->
    Prairie_value.Attribute.t list ->
    Prairie_value.Order.t
  (** Output order of the index scan chosen by {!indexed_selection}. *)

  val indexed_selectivity :
    Prairie_catalog.Catalog.t ->
    Prairie_value.Predicate.t ->
    Prairie_value.Attribute.t list ->
    float
  (** Selectivity of the index-matched conjunct alone. *)

  val mat_added_attrs :
    Prairie_catalog.Catalog.t ->
    Prairie_value.Attribute.t list ->
    Prairie_value.Attribute.t list
  (** Attributes the MAT operator adds: the attributes of the class its
      reference attribute points to. *)

  val mat_added_size : Prairie_catalog.Catalog.t -> Prairie_value.Attribute.t list -> int

  val unnest_fanout : Prairie_catalog.Catalog.t -> Prairie_value.Attribute.t list -> int
  (** Average cardinality of the set-valued attribute (its [distinct]
      statistic). *)
end

val env : Prairie_catalog.Catalog.t -> Prairie.Helper_env.t
(** The full helper environment: {!Prairie.Helper_env.builtins} plus the
    algebra helpers listed below.

    Predicates and attributes: [union_attrs], [pred_refs_only],
    [pred_is_true], [has_conjuncts], [first_conjunct], [rest_conjuncts],
    [and_pred], [is_equijoin], [is_ref_join].

    Statistics: [join_cardinality], [select_cardinality],
    [unnest_cardinality], [mat_added_attrs], [mat_added_size],
    [unnest_fanout].

    Orders and indexes: [lhs_join_order] and [rhs_join_order] (both
    {!F.join_order}), [indexed_selection], [index_order].

    Costs (delegating to {!Cost_model}): [cost_file_scan],
    [cost_index_scan], [cost_merge_join], [cost_hash_join],
    [cost_pointer_join], [cost_sort], [cost_filter], [cost_project],
    [cost_mat_ordered], [cost_mat_unordered], [cost_unnest], [cost_ship]. *)
