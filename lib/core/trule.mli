(** Transformation rules (T-rules).

    A T-rule [E(x1..xn):D1 ==> E'(x1..xn):D2] defines an equivalence between
    two operator trees (paper §2.3, Eq. 1).  Its actions are split into
    {e pre-test} statements (run before the applicability test, typically
    computing the output annotations the test inspects), the boolean
    {e test}, and {e post-test} statements (run only on success).  All
    statements assign only to output descriptors — input descriptors are
    immutable. *)

type t = {
  name : string;
  lhs : Pattern.t;
  rhs : Pattern.tmpl;
  pre_test : Action.stmt list;
  test : Action.expr;
  post_test : Action.stmt list;
}

val make :
  ?pre_test:Action.stmt list ->
  ?test:Action.expr ->
  ?post_test:Action.stmt list ->
  name:string ->
  lhs:Pattern.t ->
  rhs:Pattern.tmpl ->
  unit ->
  t
(** [test] defaults to [TRUE], the statement lists to empty. *)

val input_descriptors : t -> string list
(** Descriptor variables bound by matching the LHS (never assignable). *)

val output_descriptors : t -> string list
(** Descriptor variables of the RHS that must be computed by the actions. *)
