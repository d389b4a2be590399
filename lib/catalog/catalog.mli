(** The catalog: the collection of stored files known to an optimizer.

    The paper (§4.1) mentions "catalogs which contain information about base
    classes that are used by the optimizer"; this is that component.  It also
    hosts the attribute-level statistics lookups used by selectivity
    estimation. *)

type t

val empty : t

val add : Stored_file.t -> t -> t
(** Adds (or replaces) a stored file.  *)

val of_files : Stored_file.t list -> t

val find : t -> string -> Stored_file.t option

val find_exn : t -> string -> Stored_file.t
(** @raise Not_found if the file is unknown. *)

val mem : t -> string -> bool

val files : t -> Stored_file.t list
(** All stored files, sorted by name. *)

val distinct_of : t -> Prairie_value.Attribute.t -> int
(** Distinct-value count of an attribute; a default of 10 is assumed for
    attributes not described in the catalog. *)

val has_index_on : t -> Prairie_value.Attribute.t -> bool

val ref_target : t -> Prairie_value.Attribute.t -> string option
(** For an OODB reference attribute, the class it points to. *)

val is_set_valued : t -> Prairie_value.Attribute.t -> bool
