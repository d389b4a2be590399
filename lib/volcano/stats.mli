(** Search statistics.

    Counters the experiments report: equivalence classes (Figure 14),
    distinct rules matched (Table 5) and raw search effort. *)

type t = {
  mutable groups_created : int;
  mutable groups_merged : int;
  mutable lexprs_created : int;
  mutable lexpr_duplicates : int;  (** dedup hits during exploration *)
  mutable trans_applications : int;  (** successful trans-rule firings *)
  mutable impl_firings : int;  (** impl-rule plans costed *)
  mutable enforcer_firings : int;
  mutable memo_hits : int;
  mutable optimize_calls : int;
  mutable pruned : int;
      (** sub-searches abandoned by the cost limit (an input with no plan
          at all counts too) *)
  mutable winner_probes : int;  (** winner-table lookups *)
  mutable winner_hits : int;  (** winner-table lookups answered *)
  trans_matched : (string, unit) Hashtbl.t;
      (** distinct trans rules whose LHS matched *)
  impl_matched : (string, unit) Hashtbl.t;
      (** distinct impl rules whose operator matched *)
  trans_applied : (string, unit) Hashtbl.t;
      (** distinct trans rules whose condition passed at least once *)
  impl_applied : (string, unit) Hashtbl.t;
      (** distinct impl rules whose condition passed at least once *)
}

val create : unit -> t

val reset : t -> unit

val record_trans_match : t -> string -> unit

val record_impl_match : t -> string -> unit

val trans_matched_count : t -> int
(** Number of distinct trans_rules matched — the Table 5 metric. *)

val impl_matched_count : t -> int

val record_trans_applied : t -> string -> unit
val record_impl_applied : t -> string -> unit
val trans_applied_count : t -> int
val impl_applied_count : t -> int

(** The recorded rule names, sorted (the sets themselves are Hashtbl-backed
    so recording stays O(1) under rule sets with many distinct rules). *)

val trans_matched_names : t -> string list
val impl_matched_names : t -> string list
val trans_applied_names : t -> string list
val impl_applied_names : t -> string list

val pp : Format.formatter -> t -> unit
