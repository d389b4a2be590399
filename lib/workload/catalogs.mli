(** Synthetic Open OODB catalogs for the paper's experiments (§4.3).

    A catalog for an N-way join query holds base classes [C1 .. C(N+1)]
    forming a linear query graph: each [Ci] carries
    - [oid] — the object identity;
    - [bCi] — a scalar attribute (the selection predicates of E3/E4 test
      [bCi = i]), optionally indexed (queries Q2/Q4/Q6/Q8);
    - [rCi] — a reference attribute to [C(i+1)] (the join predicates are
      the reference equalities [Ci.rCi = C(i+1).oid]);
    - [dCi] — a reference attribute to a detail class [DCi], the one the
      E2/E4 expressions MATerialize;
    and a detail class [DCi] per base class.

    Cardinalities are drawn uniformly from [card_range] per class, from an
    explicit seed — the paper varies the cardinalities five times per data
    point and averages. *)

type spec = {
  classes : int;  (** number of base classes, i.e. joins + 1 *)
  indexed : bool;  (** one index per base class, on [bCi] *)
  card_range : int * int;  (** inclusive cardinality range *)
  detail_card_range : int * int;
  seed : int;
}

val default_spec : classes:int -> indexed:bool -> seed:int -> spec
(** Cardinalities 200–2000, detail classes 50–500. *)

val make : spec -> Prairie_catalog.Catalog.t
(** [make_rng (Rng.create spec.seed) spec]. *)

val make_rng : Prairie_util.Rng.t -> spec -> Prairie_catalog.Catalog.t
(** Like {!make}, but drawing cardinalities from a caller-supplied
    generator ([spec.seed] is ignored).  Draws are explicitly sequenced in
    file order, so the same generator state always yields the same catalog
    — the property the verifier's shrinking relies on. *)

val class_name : int -> string
(** [class_name i] is ["Ci"] (1-based). *)

val oid : int -> Prairie_value.Attribute.t
val b_attr : int -> Prairie_value.Attribute.t
val ref_attr : int -> Prairie_value.Attribute.t
val detail_ref : int -> Prairie_value.Attribute.t

val set_attr : int -> Prairie_value.Attribute.t
(** [set_attr i] is the set-valued attribute [Ci.sCi] (fanout 3), the
    target of the UNNEST operator. *)

val join_pred : int -> Prairie_value.Predicate.t
(** [join_pred i] is [Ci.rCi = C(i+1).oid]. *)

val selection_pred : classes:int -> Prairie_value.Predicate.t
(** The E3/E4 selection: the conjunction of [bCi = i] over all classes. *)

(** {1 Star query graphs}

    The paper's stated future work ("in the future, we will experiment
    with non-linear (e.g. star) query graphs").  A star catalog has a hub
    class [H] carrying one reference attribute per satellite class [Si];
    every join predicate goes through the hub. *)

val make_star : spec -> Prairie_catalog.Catalog.t
(** [spec.classes] counts the satellites; the hub is created on top.
    Satellites have [bSi] selection attributes (indexed when the spec says
    so); the hub has [hSi] references to each satellite. *)

val hub_name : string
val satellite_name : int -> string
val hub_ref : int -> Prairie_value.Attribute.t
val satellite_b_attr : int -> Prairie_value.Attribute.t

val star_join_pred : int -> Prairie_value.Predicate.t
(** [star_join_pred i] is [H.hSi = Si.oid]. *)
