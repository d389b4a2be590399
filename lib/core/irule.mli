(** Implementation rules (I-rules).

    An I-rule [E(x1..xn):D ==> A(x1:D1', .., xn):D'] chooses a concrete
    algorithm for an abstract operator (paper §2.4, Eq. 3).  Its three
    parts:
    - the boolean {e test} of applicability;
    - {e pre-opt} statements, run {e before} the inputs are optimized —
      this is where required physical properties (e.g. a tuple order) are
      pushed down to re-descriptored inputs;
    - {e post-opt} statements, run {e after} the inputs are optimized —
      this is where the algorithm's cost is computed from input costs.

    An I-rule whose right-hand side is the distinguished [Null] algorithm
    (paper §2.5) marks its operator as an enforcer-operator. *)

type t = {
  name : string;
  lhs : Pattern.t;  (** a single operator over stream variables *)
  rhs : Pattern.tmpl;  (** a single algorithm node *)
  test : Action.expr;
  pre_opt : Action.stmt list;
  post_opt : Action.stmt list;
}

val null_algorithm : string
(** The reserved algorithm name ["Null"]. *)

val make :
  ?test:Action.expr ->
  ?pre_opt:Action.stmt list ->
  ?post_opt:Action.stmt list ->
  name:string ->
  lhs:Pattern.t ->
  rhs:Pattern.tmpl ->
  unit ->
  t

val operator : t -> string
(** The operator the rule implements (root of the LHS). *)

val algorithm : t -> string
(** The algorithm the rule selects (root of the RHS). *)

val is_null_rule : t -> bool
(** Does the rule implement its operator by the [Null] algorithm?  Such an
    operator is an enforcer-operator (paper §2.5). *)

val operator_descriptor : t -> string
(** Descriptor variable of the LHS operator node. *)

val algorithm_descriptor : t -> string
(** Descriptor variable of the RHS algorithm node. *)

val redescriptored_inputs : t -> (int * string) list
(** Stream variables the RHS re-descriptors, with the new descriptor
    variable: the inputs whose required properties the rule sets. *)

val input_descriptors : t -> string list

val output_descriptors : t -> string list
