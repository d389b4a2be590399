(* The shipped rule files, parsed once when the library is initialized —
   on the main domain, before any domain pool starts.  The text is
   embedded at build time (Rule_text, written by the rule in ./dune), so a
   file that no longer parses fails with its path and line:column. *)

module Dsl = Prairie_dsl

let parse path src =
  let fail kind (pos : Dsl.Lexer.position) msg =
    failwith
      (Printf.sprintf "%s:%d:%d: %s error: %s" path pos.line pos.column kind msg)
  in
  match Dsl.Parser.parse src with
  | spec -> spec
  | exception Dsl.Lexer.Lex_error (pos, msg) -> fail "lexical" pos msg
  | exception Dsl.Parser.Parse_error (pos, msg) -> fail "parse" pos msg

let files =
  List.map
    (fun (path, src) -> (path, parse path src))
    [
      ("rules/open_oodb.prairie", Rule_text.open_oodb);
      ("rules/relational.prairie", Rule_text.relational);
      ("rules/distributed.prairie", Rule_text.distributed);
      ("rules/aggregates.prairie", Rule_text.aggregates);
    ]

let open_oodb = List.assoc "rules/open_oodb.prairie" files
let relational = List.assoc "rules/relational.prairie" files
let distributed = List.assoc "rules/distributed.prairie" files
let aggregates = List.assoc "rules/aggregates.prairie" files
