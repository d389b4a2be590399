(** The centralized relational optimizer of paper §2 and [5].

    Operators: RET, JOIN, JOPR (join over sorted inputs, introduced by the
    sort-introduction T-rule of footnote 5) and the enforcer-operator SORT.
    Algorithms: File_scan, Index_scan, Nested_loops, Merge_join, Merge_sort
    and Null.  The rule set contains the paper's worked examples verbatim:
    join associativity (Fig. 3), Merge_sort (Fig. 5), Nested_loops (Fig. 6)
    and the Null sort rule (Fig. 7b).

    The rules are written once, in [rules/relational.prairie]: the library
    embeds that file at build time and parses it when it is initialized. *)

val ruleset : Prairie_catalog.Catalog.t -> Prairie.Ruleset.t
(** The elaborated [rules/relational.prairie], with the helper functions
    bound to [catalog]'s statistics: 5 T-rules (commutativity,
    associativity, sort-introduction for merge join, and two
    enforcer-introduction rules) and 6 I-rules.  P2V compacts this to 2
    trans_rules, 4 impl_rules and 1 enforcer. *)

(** {1 Query constructors}

    Re-exports of {!Init}, specialized to the relational vocabulary. *)

val relation :
  ?indexes:string list ->
  ?tuple_size:int ->
  name:string ->
  cardinality:int ->
  (string * int) list ->
  Prairie_catalog.Stored_file.t
(** [relation ~name ~cardinality columns] builds a base relation;
    [columns] are (attribute name, distinct count) pairs, [indexes] names
    the indexed attributes. *)

val ret :
  ?pred:Prairie_value.Predicate.t ->
  Prairie_catalog.Catalog.t ->
  string ->
  Prairie.Expr.t

val join :
  Prairie_catalog.Catalog.t ->
  pred:Prairie_value.Predicate.t ->
  Prairie.Expr.t ->
  Prairie.Expr.t ->
  Prairie.Expr.t

val sort :
  Prairie_catalog.Catalog.t ->
  order:Prairie_value.Order.t ->
  Prairie.Expr.t ->
  Prairie.Expr.t
