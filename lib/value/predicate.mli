(** Selection and join predicates.

    Predicates are boolean expressions over comparisons of attribute values
    and constants.  They serve three purposes in the optimizer:
    - as descriptor properties ([selection_predicate], [join_predicate]);
    - as input to selectivity estimation (see {!Prairie_catalog});
    - as executable filters in the execution engine. *)

type comparison = Eq | Ne | Lt | Le | Gt | Ge

type term =
  | T_attr of Attribute.t
  | T_int of int
  | T_float of float
  | T_string of string

type t =
  | True
  | False
  | Cmp of comparison * term * term
  | And of t * t
  | Or of t * t
  | Not of t

val conj : t -> t -> t
(** Conjunction with [True]/[False] simplification. *)

val conjuncts : t -> t list
(** [conjuncts p] flattens nested [And]s; [conjuncts True = []]. *)

val of_conjuncts : t list -> t
(** Inverse of {!conjuncts}: the conjunction of a list of predicates. *)

val attributes : t -> Attribute.Set.t
(** All attributes referenced by the predicate. *)

val owners : t -> string list
(** Sorted list of distinct attribute owners referenced by the predicate. *)

val references_only : owners:string list -> t -> bool
(** Does the predicate mention only attributes of the given owners? *)

val split : owners:string list -> t -> t * t
(** [split ~owners p] partitions the conjuncts of [p] into those that
    reference only [owners] and the rest.  Useful for predicate pushdown. *)

val is_equijoin : t -> bool
(** Is the predicate a conjunction of attribute-equals-attribute comparisons
    spanning at least two owners? *)

val equality_pairs : t -> (Attribute.t * Attribute.t) list
(** Attribute pairs related by top-level equality conjuncts. *)

val equality_constants : t -> (Attribute.t * term) list
(** [(a, c)] for each top-level conjunct [a = c] with [c] a constant.  This
    is what index-scan applicability tests inspect. *)

val comparison_to_string : comparison -> string

val equal : t -> t -> bool

val compare : t -> t -> int

val hash : t -> int

val eval : lookup:(Attribute.t -> term option) -> t -> bool
(** [eval ~lookup p] evaluates [p] given a binding of attributes to constant
    terms.  Unknown attributes and type-incompatible comparisons evaluate to
    [false] (three-valued logic collapsed to boolean, as in a filter). *)

val pp : Format.formatter -> t -> unit

val to_string : t -> string
