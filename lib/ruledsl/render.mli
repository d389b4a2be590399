(** Pretty-printer from Prairie rule sets back to the rule-specification
    language.  [parse (render rs)] elaborates to a rule set equivalent to
    [rs] (round-trip tested), which makes embedded rule sets exportable as
    [.prairie] files.

    Constants print as the language's literals: booleans, numbers,
    strings, [DONT_CARE] (the any-order) and [TRUE_PRED] (the always-true
    predicate).
    @raise Invalid_argument on any other constant (a sorted order, a
    non-trivial predicate, an attribute list, ...), which has no surface
    syntax. *)

val expr : Format.formatter -> Prairie.Action.expr -> unit

val stmt : Format.formatter -> Prairie.Action.stmt -> unit

val pattern : Format.formatter -> Prairie.Pattern.t -> unit

val template : Format.formatter -> Prairie.Pattern.tmpl -> unit

val ruleset : Format.formatter -> Prairie.Ruleset.t -> unit

val ruleset_to_string : Prairie.Ruleset.t -> string
