(** Volcano-style stream iterators (open / next / close).

    The execution engine mirrors the iterator model of the Volcano query
    evaluation system: every physical operator is a stream of tuples with
    demand-driven [next].  Iterators are re-openable, which is what a
    nested-loops join requires of its inner input. *)

type t = {
  schema : Tuple.schema;
  open_ : unit -> unit;
  next : unit -> Tuple.t option;
  close : unit -> unit;
}

val of_array : Tuple.schema -> Tuple.t array -> t

val materialize : t -> Tuple.t array
(** Open, drain and close. *)

(** {1 Physical operators} *)

val scan : Table.t -> pred:Prairie_value.Predicate.t -> t
(** File scan with an embedded selection (RET's additional parameter). *)

val index_scan :
  Table.t -> pred:Prairie_value.Predicate.t -> order:Prairie_value.Attribute.t list -> t
(** Simulated index access: selection plus delivery in index order. *)

val filter : t -> pred:Prairie_value.Predicate.t -> t

val project : t -> attrs:Prairie_value.Attribute.t list -> t

val nested_loops : t -> t -> pred:Prairie_value.Predicate.t -> t
(** Re-opens the inner input once per outer tuple. *)

val hash_join : t -> t -> pred:Prairie_value.Predicate.t -> t
(** Builds a hash table on the right input over the predicate's equality
    pairs and probes it once per left (outer) tuple, so the output keeps
    the outer order; residual conjuncts are applied as a post-filter.
    [Pointer_join] plans run on it too. *)

val merge_join : t -> t -> pred:Prairie_value.Predicate.t -> t
(** Requires both inputs sorted on their sides of the equality pairs (the
    optimizer guarantees this via SORT / enforcers). *)

val sort : t -> order:Prairie_value.Attribute.t list -> t

val mat_deref : Table.database -> t -> attr:Prairie_value.Attribute.t -> t
(** Dereference the reference attribute into its target class and append
    the target's columns. *)

val unnest : t -> attr:Prairie_value.Attribute.t -> t
(** Replace the set-valued attribute by one element per output tuple. *)

val hash_aggregate : t -> by:Prairie_value.Attribute.t list -> t
(** Group-and-count via a hash table; output columns are the group
    attributes followed by [agg.count].  Output order unspecified. *)

val stream_aggregate : t -> by:Prairie_value.Attribute.t list -> t
(** Group-and-count over an input sorted on the group attributes: counts
    consecutive runs, preserving the order.  The optimizer guarantees the
    sortedness. *)

val null : t -> t
(** The Null algorithm: the identity. *)
