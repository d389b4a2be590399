(** Well-formedness of a parsed rule specification: the one validator of
    rule text.  {!Elaborate.elaborate} refuses a spec with any of these
    errors, and [prairiec lint] reports them next to its warnings and
    P2V-level checks, so a file with no lint error elaborates.

    - {b declarations}: unknown property types (P018), duplicate
      declarations (P006), undeclared or wrong-arity operations
      (P003/P005), undeclared properties (P001), duplicate rule names
      (P007), operators no I-rule implements (P009);
    - {b bindings}: RHS stream variables the LHS does not bind (P012),
      I-rules that are not one operator over distinct streams implemented
      by one algorithm over the same streams (P044), descriptors read
      before they are bound (P010), assignments to LHS descriptors (P019),
      unregistered helpers (P015), literals of the wrong type (P017). *)

val catalogue : Prairie.Diagnostic.catalogue
(** The codes {!errors} can emit, all of severity [Error]. *)

val errors :
  ?helpers:Prairie.Helper_env.t -> Ast.spec -> Prairie.Diagnostic.t list
(** Every well-formedness error of the spec, normalized
    ({!Prairie.Diagnostic.normalize}).  P015 runs only when [helpers] is
    given. *)

val span_of : Ast.loc -> Prairie.Diagnostic.span option
(** The diagnostic span of a source position; [None] for {!Ast.no_loc}. *)

val rule_stmts : Ast.rule_body -> Prairie.Action.stmt list
(** The pre section's statements, then the post section's. *)

val iter_props : (string -> unit) -> Ast.rule_body -> unit
(** Calls the function on every property the rule reads or writes,
    repeats included. *)
