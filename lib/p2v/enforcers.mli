(** Enforcer-operator detection (paper §3.1).

    A Prairie rule set may contain, for a single-input operator [O],
    I-rules [O(S1) => A1(S1)], ..., [O(S1) => An(S1)] and
    [O(S1) => Null(S1:D3)].  The pre-processor classifies [O] as an
    {e enforcer-operator} and [A1..An] as {e enforcer-algorithms}:
    the enforcer-algorithms become Volcano enforcers and the operator
    itself disappears from the Volcano rule set. *)

type info = {
  operator : string;  (** the enforcer-operator, e.g. SORT *)
  null_rule : Prairie.Irule.t;  (** its [Null] I-rule *)
  algorithm_rules : Prairie.Irule.t list;
      (** its other I-rules — the enforcer-algorithms, e.g. Merge_sort *)
  enforced_properties : string list;
      (** the properties the operator enforces: those the Null rule's
          pre-opt propagates from the operator descriptor to the
          re-descriptored input ([D3.p = D2.p]) *)
}

val detect : Prairie.Ruleset.t -> info list
(** All enforcer-operators of the rule set, in declaration order. *)

val is_enforcer_operator : info list -> string -> bool
