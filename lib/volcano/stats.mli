(** Search statistics.

    Counters the experiments report: equivalence classes (Figure 14),
    distinct rules matched (Table 5) and raw search effort, and the
    per-rule account {!Explain.trace} renders.  Every count is exact and
    kept whether or not a span sink is attached. *)

(** What one rule did over a search. *)
type account = {
  mutable matched : int;
      (** firings that matched: a trans rule's LHS bound at least once
          against a lexpr, an impl rule's operator and arity matched one *)
  mutable bindings : int;
      (** trans rules: bindings over all matches (one condition test
          each); impl rules: 0, a match is one test *)
  mutable applied : int;  (** condition tests that passed *)
  mutable fresh : int;
      (** trans rules: applications whose RHS was new to the memo *)
  mutable rejected_test : int;  (** condition tests that failed *)
  mutable rejected_pruned : int;
      (** impl rules: applications abandoned because an input found no
          plan within the cost limit *)
}

type t = {
  mutable groups_created : int;
  mutable groups_merged : int;
  mutable lexprs_created : int;
  mutable lexpr_duplicates : int;  (** dedup hits during exploration *)
  mutable impl_firings : int;  (** impl-rule plans costed *)
  mutable enforcer_firings : int;
  mutable memo_hits : int;
  mutable optimize_calls : int;
  mutable pruned : int;
      (** sub-searches abandoned by the cost limit (an input with no plan
          at all counts too) *)
  mutable winner_probes : int;  (** winner-table lookups *)
  mutable winner_hits : int;  (** winner-table lookups answered *)
  mutable winner_changes : int;
      (** times a group's best plan under a requirement improved *)
  trans : (string, account) Hashtbl.t;  (** trans-rule accounts by name *)
  impl : (string, account) Hashtbl.t;  (** impl-rule accounts by name *)
}

val create : unit -> t

val trans_account : t -> string -> account
(** The named trans rule's account, added (all zero) on first use. *)

val impl_account : t -> string -> account

val trans_matched_count : t -> int
(** Number of distinct trans rules matched — the Table 5 metric. *)

val impl_matched_count : t -> int
val trans_applied_count : t -> int
val impl_applied_count : t -> int

val trans_applications : t -> int
(** Successful trans-rule firings: the sum of the applied counts. *)

val trans_accounts : t -> (string * account) list
(** Every trans-rule account, sorted by rule name. *)

val impl_accounts : t -> (string * account) list

val pp : Format.formatter -> t -> unit
