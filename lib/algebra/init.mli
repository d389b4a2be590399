(** Initialized operator trees (paper §2.2).

    "There are certain annotations that are known before any optimization is
    begun; these can be computed at the time the operator tree is
    initialized."  These smart constructors build operator trees whose
    descriptors carry those annotations: additional parameters (predicates,
    materialized attributes, orders) and derived statistics (attributes,
    cardinality, tuple size).

    The computations here deliberately call the same {!Helpers.F} and
    {!Prairie_catalog.Stats} functions as the T-rule actions, so a logical
    expression reached by rewriting has exactly the same descriptor as the
    same expression built directly — which is what the memo's duplicate
    detection needs. *)

val file : Prairie_catalog.Catalog.t -> string -> Prairie.Expr.t

val ret :
  ?pred:Prairie_value.Predicate.t ->
  Prairie_catalog.Catalog.t ->
  string ->
  Prairie.Expr.t
(** [RET] of a stored file with an optional selection predicate (default
    [True]). *)

val join :
  Prairie_catalog.Catalog.t ->
  pred:Prairie_value.Predicate.t ->
  Prairie.Expr.t ->
  Prairie.Expr.t ->
  Prairie.Expr.t

val select :
  Prairie_catalog.Catalog.t ->
  pred:Prairie_value.Predicate.t ->
  Prairie.Expr.t ->
  Prairie.Expr.t

val project :
  Prairie_catalog.Catalog.t ->
  attrs:Prairie_value.Attribute.t list ->
  Prairie.Expr.t ->
  Prairie.Expr.t

val mat :
  Prairie_catalog.Catalog.t ->
  attr:Prairie_value.Attribute.t ->
  Prairie.Expr.t ->
  Prairie.Expr.t
(** Materialize the object referenced by [attr] (a reference attribute):
    the target class's attributes are added to the stream. *)

val unnest :
  Prairie_catalog.Catalog.t ->
  attr:Prairie_value.Attribute.t ->
  Prairie.Expr.t ->
  Prairie.Expr.t

val sort :
  Prairie_catalog.Catalog.t ->
  order:Prairie_value.Order.t ->
  Prairie.Expr.t ->
  Prairie.Expr.t
