(** Stored files: base relations and OODB classes.

    The paper's leaf nodes (§2.1): a stored file is a relation [R_i] (in the
    relational algebra) or a class [C_i] (in the Open OODB algebra).  The
    catalog entry records the schema and the statistics the cost model needs
    (cardinality, tuple size, per-column distinct counts) together with the
    available indexes. *)

type kind =
  | Relation
  | Class

type column = {
  attr : Prairie_value.Attribute.t;
  distinct : int;  (** number of distinct values, for selectivity *)
  ref_to : string option;
      (** OODB reference attribute: name of the target class.  These are the
          attributes the MAT operator dereferences and Pointer_join follows. *)
  set_valued : bool;  (** set-valued attribute, target of the UNNEST operator *)
}

type index = {
  index_name : string;
  on : Prairie_value.Attribute.t;
  unique : bool;
}

type t = {
  name : string;
  kind : kind;
  columns : column list;
  cardinality : int;  (** number of stored tuples *)
  tuple_size : int;  (** bytes per tuple *)
  indexes : index list;
}

val column : ?distinct:int -> ?ref_to:string -> ?set_valued:bool -> string -> string -> column
(** [column owner name] builds a plain column; [distinct] defaults to 10. *)

val make :
  ?kind:kind ->
  ?tuple_size:int ->
  ?indexes:index list ->
  name:string ->
  cardinality:int ->
  column list ->
  t
(** [make ~name ~cardinality cols] with [kind] defaulting to [Class] and
    [tuple_size] to 100 bytes. *)

val attributes : t -> Prairie_value.Attribute.t list

val find_column : t -> string -> column option
(** Look a column up by its (unqualified) attribute name. *)

val has_index_on : t -> Prairie_value.Attribute.t -> bool

val pages : page_size:int -> t -> int
(** Number of disk pages occupied: [ceil (cardinality * tuple_size / page_size)],
    at least 1. *)
