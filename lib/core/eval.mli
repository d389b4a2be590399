(** Evaluation of rule actions and rule application.

    This is the dynamic semantics of Prairie rules (paper §§2.3–2.4):

    - {b T-rules}: match → pre-test statements → test → post-test
      statements → instantiate the output operator tree.  All post-test
      actions run immediately, with no intermediate optimization of
      descendant nodes.
    - {b I-rules}: match → test → pre-opt statements (computing the
      algorithm descriptor and the required descriptors of re-descriptored
      inputs) → {e inputs are optimized by the caller} → input descriptors
      are rebound to the achieved ones → post-opt statements (computing
      cost) → instantiate the algorithm node.

    The engine enforces the paper's immutability discipline dynamically:
    assigning to a descriptor bound by the LHS raises {!Rule_error}. *)

exception Rule_error of string

val eval_expr :
  Helper_env.t -> Pattern.Binding.t -> Action.expr -> Prairie_value.Value.t
(** @raise Rule_error on reads of whole descriptors outside a
    whole-descriptor assignment. *)

val eval_test : Helper_env.t -> Pattern.Binding.t -> Action.expr -> bool
(** @raise Rule_error when the test does not evaluate to a boolean. *)

val exec_stmts :
  protected:string list ->
  Helper_env.t ->
  Pattern.Binding.t ->
  Action.stmt list ->
  Pattern.Binding.t
(** Run assignment statements in order.  [protected] lists descriptor
    variables that must not be assigned (the LHS descriptors). *)

val apply_trule : Helper_env.t -> Trule.t -> Expr.t -> Expr.t option
(** One T-rule application at the root of an operator tree; [None] when the
    pattern does not match or the test fails. *)

(** {1 Two-phase I-rule application} *)

type irule_app
(** An I-rule application suspended between its pre-opt and post-opt
    phases: the test has passed and required input descriptors have been
    computed, but the inputs have not yet been optimized. *)

val begin_irule : Helper_env.t -> Irule.t -> Expr.t -> irule_app option
(** Match the LHS against an operator node, evaluate the test, and run the
    pre-opt statements. *)

val pose : Expr.t -> Descriptor.t -> Expr.t option
(** [pose e d] is the sub-problem "[e] under root descriptor [d]".  An
    operator tree takes [d] as its root descriptor.  A stored file is not
    a stream: no algorithm changes what it delivers, so it is posed as
    itself, and only when its own descriptor meets every property of [d]
    (an order by {!Prairie_value.Order.satisfies}, any other value by
    equality); otherwise [None]. *)

val input_requirements : irule_app -> (int * Expr.t) list option
(** For each stream variable of the rule, the input subtree posed (see
    {!pose}) under the required descriptor pushed down by the pre-opt
    statements, or left untouched when the input is not re-descriptored.
    These are the sub-problems the caller must optimize before calling
    {!finish_irule}.  [None] when a stored-file input does not meet the
    descriptor required of it: the rule yields no plan. *)

val finish_irule :
  Helper_env.t -> irule_app -> optimized_inputs:(int * Expr.t) list -> Expr.t
(** Rebind each input's descriptor to the achieved descriptor of the
    optimized subplan, run the post-opt statements (computing cost), and
    build the algorithm node. *)
