(** Operator trees, expressions and access plans.

    An operator tree is "a rooted tree whose non-leaf nodes are database
    operations (operators or algorithms) and whose leaf nodes are stored
    files" (paper §2.1).  A tree whose interior nodes are all abstract
    operators is an {e operator tree} (logical expression); one whose
    interior nodes are all algorithms is an {e access plan} (physical
    expression). *)

type node_kind =
  | Operator  (** abstract operator, e.g. JOIN *)
  | Algorithm  (** concrete algorithm, e.g. Nested_loops *)

type t =
  | Stored of string * Descriptor.t
      (** leaf: a stored file (relation or class) and its annotations *)
  | Node of node_kind * string * Descriptor.t * t list
      (** interior node: database operation, its descriptor and its essential
          parameters (the stream/file inputs) *)

val stored : ?desc:Descriptor.t -> string -> t
val operator : string -> Descriptor.t -> t list -> t
val algorithm : string -> Descriptor.t -> t list -> t

val descriptor : t -> Descriptor.t
(** The root node's descriptor. *)

val with_descriptor : t -> Descriptor.t -> t
(** Replace the root node's descriptor. *)

val map_descriptor : t -> (Descriptor.t -> Descriptor.t) -> t
(** Update the root node's descriptor in place (functionally). *)

val inputs : t -> t list

val label : t -> string
(** Operation name for interior nodes, file name for leaves. *)

val is_operator_tree : t -> bool
(** All interior nodes are abstract operators. *)

val is_access_plan : t -> bool
(** All interior nodes are algorithms (paper §2.1, "Access Plans"). *)

val size : t -> int
(** Number of nodes. *)

val operators_used : t -> string list
(** Distinct interior-node operation names, sorted. *)

val stored_files : t -> string list
(** Leaf file names in left-to-right order (with duplicates). *)

val cost : t -> float
(** Cost annotation of the root descriptor. *)

val equal : t -> t -> bool
(** Structural equality including descriptors. *)

val equal_shape : t -> t -> bool
(** Structural equality ignoring descriptors — used to deduplicate logical
    forms that differ only in derived annotations. *)

val compare : t -> t -> int

val hash : t -> int

val fingerprint : ?required:Descriptor.t -> t -> string
(** Canonical query fingerprint: the hex digest of an injective
    serialization of the whole tree (labels, node kinds and descriptors)
    together with the required physical-property descriptor of the request
    (default: empty).  Two requests collide exactly when the trees satisfy
    {!equal} and the requirements satisfy {!Descriptor.equal}, so the
    fingerprint is a sound cache key for plan services: equal fingerprints
    mean semantically identical optimization problems. *)

val pp : Format.formatter -> t -> unit
(** Compact one-line rendering, e.g. [SORT(JOIN(RET(R1), RET(R2)))]. *)

val to_string : t -> string
