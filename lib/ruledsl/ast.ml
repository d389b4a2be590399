(* Surface syntax tree of a rule-specification file.  Patterns, templates,
   statements and expressions reuse the Prairie core types directly — the
   surface language is a concrete syntax for them.  Every declaration
   carries the source position of its introducing keyword so that
   diagnostics (elaboration errors, lint findings) can point at
   line/column. *)

type loc = Lexer.position

let no_loc : loc = { Lexer.line = 0; column = 0 }

type rule_body = {
  rb_name : string;
  rb_loc : loc;
  rb_lhs : Prairie.Pattern.t;
  rb_rhs : Prairie.Pattern.tmpl;
  rb_pre : Prairie.Action.stmt list;
  rb_test : Prairie.Action.expr;
  rb_post : Prairie.Action.stmt list;
}

type decl =
  | Dproperty of string * string * loc  (* name, type name *)
  | Doperator of string * int * loc  (* name, arity *)
  | Dalgorithm of string * int * loc
  | Dtrule of rule_body
  | Dirule of rule_body

type spec = {
  ruleset_name : string;
  decls : decl list;
}

let properties spec =
  List.filter_map
    (function Dproperty (n, ty, _) -> Some (n, ty) | _ -> None)
    spec.decls

let properties_located spec =
  List.filter_map
    (function Dproperty (n, ty, l) -> Some (n, ty, l) | _ -> None)
    spec.decls

let operators spec =
  List.filter_map (function Doperator (n, a, _) -> Some (n, a) | _ -> None) spec.decls

let operators_located spec =
  List.filter_map
    (function Doperator (n, a, l) -> Some (n, a, l) | _ -> None)
    spec.decls

let algorithms spec =
  List.filter_map
    (function Dalgorithm (n, a, _) -> Some (n, a) | _ -> None)
    spec.decls

let algorithms_located spec =
  List.filter_map
    (function Dalgorithm (n, a, l) -> Some (n, a, l) | _ -> None)
    spec.decls

let trules spec =
  List.filter_map (function Dtrule r -> Some r | _ -> None) spec.decls

let irules spec =
  List.filter_map (function Dirule r -> Some r | _ -> None) spec.decls

let rules spec =
  List.filter_map
    (function
      | Dtrule r -> Some (`Trule, r)
      | Dirule r -> Some (`Irule, r)
      | Dproperty _ | Doperator _ | Dalgorithm _ -> None)
    spec.decls
