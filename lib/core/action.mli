(** Action statements of T-rules and I-rules.

    Rule actions are "a series of assignment statements" whose left-hand
    sides refer to descriptors of output expressions and whose right-hand
    sides may reference any descriptor in the rule and call helper functions
    (paper §2.3).  Keeping actions as data — rather than opaque OCaml
    closures — is what allows the P2V pre-processor to analyze them:
    property classification, enforcer detection and rule merging are all
    dataflow analyses over this AST. *)

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | And
  | Or
  | Cmp of Prairie_value.Predicate.comparison

type unop =
  | Not
  | Neg

type expr =
  | Const of Prairie_value.Value.t
  | Desc of string  (** a whole descriptor, e.g. [D3]; legal only as the
                        right-hand side of a whole-descriptor assignment *)
  | Prop of string * string  (** [D3.tuple_order] *)
  | Call of string * expr list  (** helper function call *)
  | Binop of binop * expr * expr
  | Unop of unop * expr

type stmt =
  | Assign_desc of string * expr  (** [D5 = D3;] — whole-descriptor copy *)
  | Assign_prop of string * string * expr  (** [D4.tuple_order = ...;] *)

val tt : expr
(** The constant [TRUE] test. *)

val int : int -> expr
val float : float -> expr
val str : string -> expr
val prop : string -> string -> expr
val call : string -> expr list -> expr

val ( &&& ) : expr -> expr -> expr
val ( ||| ) : expr -> expr -> expr
val ( === ) : expr -> expr -> expr
val ( =/= ) : expr -> expr -> expr

val assigned_descriptor : stmt -> string
(** The descriptor variable a statement writes to. *)

val read_descriptors : expr -> string list
(** Descriptor variables read by an expression (sorted, deduplicated). *)

val stmt_read_descriptors : stmt -> string list

val fold_const : expr -> Prairie_value.Value.t option
(** Sound constant folding: [Some v] iff the expression evaluates to [v]
    under every binding of descriptors and helper functions.  [And]/[Or]
    short-circuit on a constant absorbing element; comparisons and
    arithmetic fold only when both sides are compatible constants (an
    expression that would raise {!Prairie_value.Value.Type_error} at run
    time yields [None], never a guess).  Used by the whole-rule-set
    analyzer (P301/P302) and by [Translate] to drop provably dead rules. *)

val substitute_desc : (string -> string) -> stmt -> stmt
(** Rename descriptor variables (used by rule merging). *)

val substitute_desc_expr : (string -> string) -> expr -> expr
