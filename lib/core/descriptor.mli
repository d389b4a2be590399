(** Descriptors: the uniform per-node annotation lists of Prairie.

    A descriptor is "a list of annotations that describes a node of an
    operator tree; every node has its own descriptor" (paper §2.1).  Unlike
    Volcano, a single structure holds what Volcano splits into
    operator/algorithm arguments, physical properties and cost — the split is
    recovered mechanically by the P2V pre-processor.

    A descriptor is an immutable value that carries an order-independent
    {!hash} of its bindings, updated incrementally by {!set} and {!remove},
    so the memo hot paths hash in O(1).  Having no mutable state, a
    descriptor may be shared freely between domains. *)

type t

val empty : t

val is_empty : t -> bool

val get : t -> string -> Prairie_value.Value.t
(** [get d p] is the value of property [p], or [Null] when unset. *)

val find : t -> string -> Prairie_value.Value.t option

val set : t -> string -> Prairie_value.Value.t -> t
(** Functional update.  Setting a "no constraint" value — [Null], the
    DONT_CARE order, or the [True] predicate — removes the binding, so
    descriptors built along different rewriting paths stay structurally
    equal; the typed accessors read absent bindings back as those values. *)

val remove : t -> string -> t

val mem : t -> string -> bool

val of_list : (string * Prairie_value.Value.t) list -> t

val to_list : t -> (string * Prairie_value.Value.t) list
(** Bindings sorted by property name. *)

val merge : base:t -> overrides:t -> t
(** Right-biased union: properties of [overrides] win. *)

val restrict : t -> string list -> t
(** Keep only the named properties. *)

val without : t -> string list -> t
(** Drop the named properties. *)

module String_set : Set.S with type elt = string

val restrict_set : t -> String_set.t -> t
(** {!restrict} against a prebuilt property set — use this when the same
    property list is applied repeatedly (e.g. a rule set's physical
    properties) to avoid rebuilding the set per call. *)

val without_set : t -> String_set.t -> t

val equal : t -> t -> bool
(** Pointer equality first, then the hash pre-check, then structural
    comparison of the binding maps. *)

val compare : t -> t -> int
(** Structural comparison: deterministic across runs and domains. *)

val hash : t -> int
(** O(1): returns the precomputed hash, a pure function of the bindings,
    so equal descriptors hash equal. *)

module Tbl : Hashtbl.S with type key = t
(** Hash tables keyed by descriptor, using {!hash} and {!equal}: the
    structure for winner tables and per-descriptor memo caches. *)

val add_fingerprint : Buffer.t -> t -> unit
(** Append an injective canonical serialization of the bindings to a buffer
    (the building block of {!Prairie.Expr.fingerprint}).  Because "no
    constraint" values are normalized to absence (see {!set}), descriptors
    built along different rewriting paths serialize identically exactly when
    they are {!equal}. *)

val fingerprint : t -> string
(** [add_fingerprint] into a fresh buffer.
    [fingerprint a = fingerprint b] iff [equal a b]. *)

type pool_stats = { size : int; hits : int; misses : int }

val pool_stats : unit -> pool_stats
(** Always all zero: descriptors are not pooled.  Kept only because the
    end-to-end benchmark (perfbench/) reads it; it goes with that
    benchmark's next revision. *)

(** {1 Typed accessors}

    Convenience readers used throughout rule tests, cost functions and the
    execution engine.  They raise [Prairie_value.Value.Type_error] on
    mismatches. *)

val get_int : t -> string -> int
val get_float : t -> string -> float
val get_order : t -> string -> Prairie_value.Order.t
val get_pred : t -> string -> Prairie_value.Predicate.t
val get_attrs : t -> string -> Prairie_value.Attribute.t list

val cost : t -> float
(** The ["cost"] property, 0 when unset. *)

val set_cost : t -> float -> t
