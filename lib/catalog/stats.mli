(** Selectivity and cardinality estimation.

    System R-style estimation (Selinger et al., the paper's [17]): equality
    with a constant selects [1/distinct], ranges select a fixed fraction,
    equijoins select [1/max(distinct)].  These estimates feed the helper
    functions ([cardinality], [selectivity]) that rule actions call to
    annotate descriptors. *)

val selectivity : Catalog.t -> Prairie_value.Predicate.t -> float
(** Estimated fraction of tuples satisfying a selection predicate.
    Always in [\[0, 1\]]. *)

val join_selectivity : Catalog.t -> Prairie_value.Predicate.t -> float
(** Estimated selectivity of a join predicate over the cross product of its
    inputs: the product of [1/max(distinct)] over its equality pairs, [0.1]
    per non-equality conjunct. *)

val select_cardinality :
  Catalog.t -> input:int -> Prairie_value.Predicate.t -> int
(** Output cardinality of a selection: [ceil (input * selectivity)], at
    least 1 when the input is non-empty. *)

val join_cardinality :
  Catalog.t -> left:int -> right:int -> Prairie_value.Predicate.t -> int
(** Output cardinality of a join. *)

val pages : cardinality:int -> tuple_size:int -> int
(** Pages occupied by a stream of given size in 4096-byte pages. *)
