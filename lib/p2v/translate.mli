(** The P2V code generator: executable Volcano rules from Prairie rules.

    Where the paper's pre-processor emits C code for Volcano's [cond_code],
    [appl_code], ["do_any_good"] and ["derive_phy_prop"] functions (§3.2,
    Table 4), this module numbers each rule's descriptor variables into a
    slot table and stages its Prairie statement lists into closures over
    the slot array once, at translation time ({!Prairie.Compiled}): every
    name is resolved to an index before the search runs, and the closures
    the {!Prairie_volcano.Search} engine calls read and write descriptors
    by index.  The other two Volcano helper
    functions (["cost"], ["get_input_pv"]) are subsumed — the paper notes
    they are short-circuited by the per-rule property transformations.

    Every T-rule {!Merge} keeps becomes a trans rule, one whose test
    constant-folds to [FALSE] (analyze's P301) included: the search
    matches it and its test rejects every binding. *)

type t = {
  merge : Merge.result;
  classification : Classify.classification;
  volcano : Prairie_volcano.Rule.ruleset;
}

val translate : Prairie.Ruleset.t -> t
(** Run the full pipeline: enforcer detection → rule merging → property
    classification → code generation. *)

val prepare_query : t -> Prairie.Expr.t -> Prairie.Expr.t * Prairie.Descriptor.t
(** Enforcer-operators do not exist on the Volcano side, so a query tree
    that mentions one (e.g. a root SORT requesting an output order) is
    rewritten: the chain of enforcer-operators at the root is deleted and
    their enforced properties become the required physical properties of
    the optimization.  Enforcer-operators in interior positions are
    likewise deleted (their requirement is re-established by enforcers
    during search, if needed for the plan to be optimal). *)

(** {1 Pieces, exposed for tests} *)

val trans_of_trule :
  Prairie.Helper_env.t ->
  Prairie.Trule.t ->
  Prairie_volcano.Rule.trans_rule

val impl_of_irule :
  Prairie.Helper_env.t ->
  physical:string list ->
  Prairie.Irule.t ->
  Prairie_volcano.Rule.impl_rule

val enforcer_of_irule :
  Prairie.Helper_env.t ->
  enforced:string list ->
  Prairie.Irule.t ->
  Prairie_volcano.Rule.enforcer
