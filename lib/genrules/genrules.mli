(** Automatic T-rule generation from algebraic property declarations.

    The paper's §6 names "automatically generating Prairie rule sets" as
    future work.  This module does it for the transformation-rule half: the
    user declares the {e algebraic properties} of the operators —
    commutativity, associativity, which unary predicate-operators push
    through which operators, which they fold into, which operators an
    enforcer may be introduced over — and the generator mechanically emits
    the corresponding T-rules with their statistics-maintenance actions
    (the property-mapping statements that §1 identifies as the major source
    of user effort and error).

    Assumptions, checked against the shipped rule sets by tests: the
    descriptor schema carries [attributes], [num_records], [tuple_size] and
    the named predicate properties; binary operators combine statistics
    join-style ([join_cardinality], size sums, attribute unions); unary
    predicate-operators filter ([select_cardinality]).  I-rules still come
    from the user — implementation choice is cost-model knowledge no
    algebraic flag captures. *)

type binary_op = {
  bin_name : string;  (** e.g. JOIN *)
  bin_pred : string;  (** its predicate property, e.g. [join_predicate] *)
  bin_commutative : bool;
  bin_associative : bool;
}

type filter_op = {
  flt_name : string;  (** e.g. SELECT *)
  flt_pred : string;  (** e.g. [selection_predicate] *)
  flt_pushes_into : (string * [ `Left | `Right | `Both ]) list;
      (** binary operators the filter pushes through, and on which sides *)
  flt_absorbs_into : string list;
      (** unary operators whose own predicate it folds into, e.g. RET *)
  flt_splits : bool;  (** generate conjunct split/merge/commute rules *)
}

type enforcer_intro = {
  enf_operator : string;  (** the enforcer-operator, e.g. SORT *)
  enf_property : string;  (** e.g. [tuple_order] *)
  enf_over : (string * int) list;
      (** operators (with arity) to generate introduction rules over —
          footnote 7's "one additional T-rule per operator" *)
}

type spec = {
  binaries : binary_op list;
  filters : filter_op list;
  enforcers : enforcer_intro list;
}

val trules : spec -> Prairie.Trule.t list
(** The generated transformation rules, in a deterministic order with
    systematic names ([gen_commute_JOIN], [gen_push_SELECT_JOIN_left],
    ...). *)

val ruleset :
  ?name:string ->
  helpers:Prairie.Helper_env.t ->
  irules:Prairie.Irule.t list ->
  spec ->
  Prairie.Ruleset.t
(** Package generated T-rules with user-provided I-rules and the standard
    property schema. *)

val relational_spec : spec
(** The declaration that regenerates the §2 relational T-rules. *)

val distributed_spec : spec
(** The declaration that regenerates the T-rules of
    [rules/distributed.prairie]: {!relational_spec} with the SHIP
    enforcer over the [site] property in place of SORT. *)

val oodb_select_join_spec : spec
(** The declaration covering the SELECT/JOIN/RET fragment of the Open OODB
    rule set (MAT and UNNEST interactions are genuinely OODB-specific
    knowledge and stay hand-written). *)
