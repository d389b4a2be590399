(** Automatic property classification (paper §3.1).

    Volcano forces users to classify every property as logical, physical or
    operator/algorithm argument; the classification is rule-dependent and a
    major source of brittleness.  Prairie infers it from the rule actions:

    - a property of declared type [COST] is a {b cost} property;
    - a property assigned in a {e pre-opt} section of an I-rule to a
      {e re-descriptored input stream} is a {b physical property} — the rule
      is pushing a requirement down to its input (e.g. [tuple_order] in the
      Nested_loops rule, paper Eq. 5), which is exactly what Volcano's
      physical-property vectors carry;
    - every other property is an {b operator/algorithm argument}. *)

type classification = {
  cost : string list;
  physical : string list;
  argument : string list;
}

val classify : Prairie.Ruleset.t -> classification
(** Classify the declared properties of a rule set.  Properties assigned in
    Null-rule pre-opt sections (property propagation, paper Eq. 6) also
    count as physical. *)
