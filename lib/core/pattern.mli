(** Rule patterns and templates.

    The left-hand side of a rule is a {e pattern}: a composition of named
    operators over numbered stream variables, each operator node carrying a
    descriptor variable (paper Eq. 1, e.g.
    [JOIN(JOIN(?1, ?2):D4, ?3):D5]).  Matching a pattern against an operator
    tree binds stream variables to subtrees and descriptor variables to
    descriptors; by convention the descriptor of stream variable [?i] is
    bound to the name [Di].

    The right-hand side is a {e template}: the same shape, except that stream
    variables may be {e re-descriptored} ([S1:D4]) to push new required
    properties down to an input (paper §2.4, I-rule pre-opt sections). *)

type t =
  | Pvar of int  (** stream variable [?i]; implicitly binds descriptor [Di] *)
  | Pop of string * string * t list
      (** operator name, descriptor variable, sub-patterns *)

type tmpl =
  | Tvar of int * string option
      (** stream variable, optionally re-descriptored: [S1:D4] *)
  | Tnode of string * string * tmpl list
      (** operation name (operator in T-rules, algorithm in I-rules),
          descriptor variable, sub-templates *)

module Binding : sig
  (** The result of a successful match. *)

  type binding = {
    streams : (int * Expr.t) list;  (** stream variable -> subtree *)
    descs : (string * Descriptor.t) list;  (** descriptor variable -> descriptor *)
  }

  type nonrec t = binding

  val empty : t
  val stream : t -> int -> Expr.t
  val stream_opt : t -> int -> Expr.t option
  val desc : t -> string -> Descriptor.t
  (** Unbound descriptor variables read as {!Descriptor.empty} — output
      descriptors start empty and are filled by action statements. *)

  val desc_opt : t -> string -> Descriptor.t option
  val bind_desc : t -> string -> Descriptor.t -> t
  val bind_stream : t -> int -> Expr.t -> t
end

val stream_desc_name : int -> string
(** [stream_desc_name i] is ["Di"], the implicit descriptor variable of
    stream variable [?i]. *)

val matches : t -> Expr.t -> Binding.t option
(** Match a pattern against an expression rooted at an {e operator} node.
    Stream variables match any subtree.  Operator patterns match only
    operator nodes with the same name and arity. *)

val vars : t -> int list
(** Stream variables of a pattern, sorted. *)

val tmpl_vars : tmpl -> int list

val desc_vars : t -> string list
(** Descriptor variables bound by matching the pattern, including the
    implicit [Di] of its stream variables; sorted. *)

val tmpl_desc_vars : tmpl -> string list
(** Descriptor variables appearing in a template (node descriptors and
    re-descriptored streams); sorted. *)

val tmpl_nodes : tmpl -> (string * string) list
(** [(operation, descriptor-variable)] for every node of the template, in
    pre-order. *)

val ops : t -> (string * int) list
(** [(operator, arity)] for every operator node of the pattern, in
    pre-order, repeats included. *)

val tmpl_ops : tmpl -> (string * int) list
(** [(operation, arity)] for every node of the template, in pre-order,
    repeats included. *)

val root_operator : t -> string option
(** The root operator name, [None] for a bare stream variable. *)

val instantiate :
  kind:Expr.node_kind -> tmpl -> Binding.t -> Expr.t
(** Build the output expression of a rule: template nodes become [kind]
    nodes carrying their (action-computed) descriptors from the binding;
    stream variables are replaced by their bound subtrees, with their root
    descriptor swapped for the re-descriptored one when present.

    @raise Invalid_argument on stream variables unbound in the binding. *)

val equal : t -> t -> bool
