(** JSON encoding helpers shared by the diagnostic, span and slow-log
    exporters and the checker reports of [prairiec]. *)

val string : string -> string
(** A JSON string literal, quotes included, escaped per RFC 8259: quote,
    backslash and control characters. *)

val float : float -> string
(** A finite float as its shortest round-trip decimal.  JSON has no
    infinity and costs can be infinite before the first winner, so
    infinities become the strings ["inf"] / ["-inf"]. *)
