(** The one printer of rule text: Prairie rule sets, rules and actions
    back in the rule-specification language.  [parse (render rs)]
    elaborates to a rule set equal to [rs] in name, properties,
    declarations, T-rules and I-rules (round-trip tested on every shipped
    file), which makes a rule set built in OCaml (a combined set, a
    merged rule) exportable and checkable as [.prairie] text.

    {!ruleset} prints the operators and algorithms [rs] records, with
    their declared arities ([Null] is predeclared and not printed), then
    the rules; {!pattern} and {!template} also print the shapes in lint's
    P044 messages.

    Constants print as the language's literals, each of which parses
    back to the same constant: booleans, integers (negative ones with a
    leading minus, [min_int] included), finite floats (17 significant
    digits, a decimal point and no exponent), strings (escaping only the
    double quote, the backslash and the newline), [DONT_CARE] (the
    any-order), [TRUE_PRED] (the always-true predicate) and [NULL].
    @raise Invalid_argument on any other constant (a non-finite float, a
    sorted order, a non-trivial predicate, an attribute list, ...), which
    has no surface syntax. *)

val expr : Format.formatter -> Prairie.Action.expr -> unit

val stmt : Format.formatter -> Prairie.Action.stmt -> unit

val pattern : Format.formatter -> Prairie.Pattern.t -> unit

val template : Format.formatter -> Prairie.Pattern.tmpl -> unit

val ruleset : Format.formatter -> Prairie.Ruleset.t -> unit

val ruleset_to_string : Prairie.Ruleset.t -> string
