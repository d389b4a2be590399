(** Physical expressions (access plans) produced by the Volcano search.

    A plan node carries the full algorithm descriptor: the algorithm
    argument, the achieved physical properties and the cost — the three
    Volcano components a Prairie descriptor is split into (paper Table 3). *)

type t =
  | Leaf of string * Prairie.Descriptor.t
      (** a stored file and its catalog annotations *)
  | Alg of string * Prairie.Descriptor.t * t list
      (** algorithm, full descriptor (argument + physical properties +
          cost), input plans *)

val descriptor : t -> Prairie.Descriptor.t

val cost : t -> float
(** Cost annotation of the root. *)

val algorithms : t -> string list
(** Distinct algorithm names used, sorted. *)

val size : t -> int

val to_expr : t -> Prairie.Expr.t
(** Convert to a Prairie access plan (for execution or comparison with the
    naive oracle). *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
(** One-line rendering, e.g. [Merge_sort(Nested_loops(File_scan(R1), ...))]. *)

val pp_verbose : Format.formatter -> t -> unit
(** Tree rendering with per-node cost. *)
