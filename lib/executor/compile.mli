(** Access-plan compilation and execution.

    Turns an optimizer access plan (an {!Prairie.Expr.t} whose interior
    nodes are algorithms, or a {!Prairie_volcano.Plan.t}) into an iterator
    tree over an in-memory database, reading each algorithm's additional
    parameters out of its descriptor — exactly the information the
    optimizer's rules put there. *)

exception Unsupported of string
(** Raised on algorithm names the engine does not know. *)

val compile : Table.database -> Prairie.Expr.t -> Iterator.t
(** @raise Unsupported on unknown algorithms.
    @raise Invalid_argument when the expression contains abstract
    operators (only access plans execute). *)

val execute : Table.database -> Prairie.Expr.t -> Tuple.schema * Tuple.t list

val execute_plan :
  Table.database -> Prairie_volcano.Plan.t -> Tuple.schema * Tuple.t list

val canonical_result : Tuple.schema * Tuple.t list -> (string * string) list list
(** A sorted multiset rendering of a result, independent of column order
    and row order — two plans for the same query must produce equal
    canonical results. *)
