(** Prairie rule sets.

    A rule set packages everything a user writes to define an optimizer in
    Prairie: the declared operators and algorithms with their arities (all
    first-class — paper §1 goal 1), the declared property list (goal 2),
    the T-rules and I-rules with their property mappings (goal 3), and the
    helper-function environment the actions call into.  The declarations
    are recorded once, as the rule text states them: [Prairie_dsl.Render]
    prints them back and the verifier draws operator trees from them. *)

type t = {
  name : string;
  properties : Property.schema;
  operators : (string * int) list;
      (** declared abstract operators with their arities, sorted by name *)
  algorithms : (string * int) list;
      (** declared algorithms with their arities, sorted by name; a set
          elaborated from rule text includes [Null] at arity 1 *)
  trules : Trule.t list;
  irules : Irule.t list;
  helpers : Helper_env.t;
}

val make :
  ?properties:Property.schema ->
  ?operators:(string * int) list ->
  ?algorithms:(string * int) list ->
  ?trules:Trule.t list ->
  ?irules:Irule.t list ->
  ?helpers:Helper_env.t ->
  string ->
  t
(** [make name] builds a rule set; [helpers] defaults to
    {!Helper_env.builtins}.  The declarations are kept as given, sorted by
    name; nothing is inferred from the rules, so a set whose rules use an
    operation it does not declare renders as text that lint rejects
    (P003). *)

val irules_for : t -> string -> Irule.t list
(** I-rules implementing the given operator. *)

val trule_count : t -> int
val irule_count : t -> int

val find_trule : t -> string -> Trule.t option
val find_irule : t -> string -> Irule.t option

val combine : name:string -> t -> t -> t
(** Combine two rule sets into one optimizer — the paper's §6 future work
    ("combining multiple Prairie rule sets to automatically generate
    efficient optimizers").  Operators, algorithms and properties are
    unioned; rules of both sets apply, so operators shared by name (e.g. a
    JOIN known to both) gain each other's transformations and
    implementations.  Same-name operations must agree on their arity,
    same-name properties on their type, and same-name rules must be
    structurally identical (they are deduplicated); anything else raises
    [Invalid_argument]. *)

val spec_size : t -> int
(** A crude "lines of specification" metric: number of rules plus number of
    action statements plus number of declared properties.  Used by the
    §4.2-style programmer-productivity report. *)
