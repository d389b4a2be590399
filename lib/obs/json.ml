(* JSON encoding helpers shared by the span, metrics and slow-log
   exporters. *)

(* Quote and escape per RFC 8259: quote, backslash, control characters. *)
let string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

(* Finite floats as shortest round-trip decimal.  JSON has no infinity and
   costs can be infinite before the first winner, so infinities become the
   strings "inf" / "-inf". *)
let float f =
  if Float.is_finite f then Printf.sprintf "%.17g" f
  else if f > 0.0 then "\"inf\""
  else "\"-inf\""
