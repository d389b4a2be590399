(** Volcano rules: trans_rules, impl_rules and enforcers.

    This is the rule interface of the Volcano optimizer generator (paper
    §3.1–3.2).  Where Prairie rules are data (statement lists), Volcano
    rules are code: condition and application functions.  Hand-coded rule
    sets supply OCaml closures (the analog of the C support functions the
    paper counts in §4.2); the P2V pre-processor generates the closures
    from Prairie rules automatically.

    Both kinds of trans rule are staged over a slot table ({!trans_rule}):
    descriptor variable names are resolved to array indices once, when the
    rule is built, so the search binds a match into a
    {!Prairie.Compiled.env} array and the closures never look a name up.
    A trans rule's LHS is rooted at an operator by construction: the memo
    holds operator trees, and a bare stream variable is refused when the
    rule is built. *)

type env = Prairie.Compiled.env
(** A trans rule invocation's descriptors, one per slot of the rule's slot
    table: matching writes the LHS descriptors into it, [tr_cond] and
    [tr_appl] update it in place, and the RHS is built from it. *)

(** An LHS operator node with every name resolved: it binds slot [desc]
    to the lexpr's argument. *)
type match_op = { op : string; desc : int; arity : int; subs : lhs_slots list }

(** An LHS input position: stream variables resolve to stream slots,
    descriptor variables to descriptor slots. *)
and lhs_slots =
  | Match_var of { stream : int; desc : int }
      (** [?i]: binds stream slot [stream] to a group and slot [desc]
          ([Di]) to the group's descriptor *)
  | Match_op of match_op

(** The RHS template with every name resolved. *)
type rhs_slots =
  | Build_var of int  (** the group bound to this stream slot *)
  | Build_op of string * int * rhs_slots list
      (** an operator node carrying the descriptor of this slot *)

type trans_rule = {
  tr_name : string;
  tr_slots : Prairie.Compiled.slots;
      (** the slot table: descriptor variable [tr_slots.(i)] is [env.(i)] *)
  tr_streams : int;  (** the number of stream slots *)
  tr_match : match_op;
      (** the LHS over slots; its root is an operator, so the match index
          files every rule under one operator *)
  tr_build : rhs_slots;  (** the RHS over slots *)
  tr_cond : env -> bool;
      (** cond_code: pre-test statements (written into the array) + test *)
  tr_appl : env -> unit;
      (** appl_code: post-test statements computing the remaining output
          descriptors *)
}

val trans_rule :
  ?vars:string list ->
  name:string ->
  lhs:Prairie.Pattern.t ->
  rhs:Prairie.Pattern.tmpl ->
  ((string -> int) -> (env -> bool) * (env -> unit)) ->
  trans_rule
(** Build a trans rule: number the descriptor variables of [lhs], [rhs]
    and [vars] (names only the actions mention) into a slot table in one
    pass, resolve the patterns against it, and stage the rule's code by
    calling [stage] with the table's resolver once — the closures it
    returns read and write slots by index.
    @raise Invalid_argument when [lhs] is a bare stream variable (nothing
    in the memo could match it), [rhs] uses a stream variable [lhs] does
    not bind, or [stage] resolves a name the table lacks. *)

type impl_rule = {
  ir_name : string;
  ir_op : string;  (** the operator implemented *)
  ir_alg : string;  (** the algorithm chosen *)
  ir_arity : int;
  ir_cond :
    op_arg:Prairie.Descriptor.t ->
    req:Prairie.Descriptor.t ->
    inputs:Prairie.Descriptor.t array ->
    bool;
      (** cond_code + do_any_good: is the algorithm applicable and can it
          contribute to the required physical properties?  [inputs] are the
          input groups' logical descriptors (e.g. a file's catalog
          annotations, which an index-scan test inspects). *)
  ir_input_reqs :
    op_arg:Prairie.Descriptor.t ->
    req:Prairie.Descriptor.t ->
    inputs:Prairie.Descriptor.t array ->
    Prairie.Descriptor.t array;
      (** get_input_pv: required physical properties for each input.
          [inputs] are the input groups' logical descriptors. *)
  ir_finalize :
    op_arg:Prairie.Descriptor.t ->
    req:Prairie.Descriptor.t ->
    inputs:Prairie.Descriptor.t array ->
    Prairie.Descriptor.t;
      (** derive_phy_prop + cost: given the achieved descriptors of the
          optimized input plans, the full algorithm descriptor (argument,
          achieved physical properties, cost). *)
}

type enforcer = {
  en_name : string;
  en_alg : string;
  en_applies : req:Prairie.Descriptor.t -> bool;
      (** can the enforcer establish part of [req]? *)
  en_relaxed : req:Prairie.Descriptor.t -> Prairie.Descriptor.t;
      (** the requirement passed down to the input once the enforcer runs *)
  en_finalize :
    req:Prairie.Descriptor.t -> input:Prairie.Descriptor.t -> Prairie.Descriptor.t;
      (** the enforcer algorithm's descriptor given its optimized input *)
}

type ruleset = {
  rs_name : string;
  rs_trans : trans_rule list;
  rs_impl : impl_rule list;
  rs_enforcers : enforcer list;
  rs_physical : string list;  (** the physical property names *)
  rs_physical_set : Prairie.Descriptor.String_set.t;
      (** [rs_physical] as a set, built once by {!make_ruleset} so
          {!restrict_physical} never rebuilds it *)
  rs_impl_index : (string, impl_rule list) Hashtbl.t;
      (** impl rules grouped by operator (in [rs_impl] order), built once
          by {!make_ruleset}; {!impl_rules_for} reads it *)
  rs_match_index : (string, (int * trans_rule) list) Hashtbl.t;
      (** trans rules grouped by LHS root operator, each paired with its
          [rs_trans] position — the rule id of the memo's tried table.  Buckets
          preserve [rs_trans] order.  Built once by {!make_ruleset};
          {!trans_rules_for} reads it. *)
}

val default_satisfies :
  required:Prairie.Descriptor.t -> actual:Prairie.Descriptor.t -> bool
(** Does an achieved physical-property vector satisfy a required one?
    Per-property check: [tuple_order] via {!Prairie_value.Order.satisfies},
    anything else by equality.  Properties absent from [required] are
    unconstrained. *)

val make_ruleset :
  ?trans:trans_rule list ->
  ?impl:impl_rule list ->
  ?enforcers:enforcer list ->
  ?physical:string list ->
  string ->
  ruleset

val impl_rules_for : ruleset -> string -> impl_rule list
(** O(1) lookup of the impl rules for an operator, in [rs_impl] order. *)

val trans_rules_for : ruleset -> string -> (int * trans_rule) list
(** O(1) lookup of the trans rules rooted at an operator, in [rs_trans]
    order ([[]] when none is).  Rules a bucket omits are exactly those
    whose match would return no bindings — skipping them leaves matches,
    applications, stats, traces and plans untouched. *)

val restrict_physical : ruleset -> Prairie.Descriptor.t -> Prairie.Descriptor.t
(** Project a descriptor onto the rule set's physical properties. *)
