(** Property declarations.

    A Prairie user "defines a list of properties to characterize the
    expressions generated in the optimization process" (paper §1, goal 2).
    Each property has a name and a declared type; the only type-driven
    distinction Prairie itself makes is that [COST]-typed properties are
    recognized as costs by the P2V pre-processor.  Everything else
    (logical/physical/argument) is inferred from rule actions, never
    declared. *)

type t = {
  name : string;
  ty : Prairie_value.Value.ty;
  default : Prairie_value.Value.t;
      (** value assumed when a descriptor lacks the property *)
}

type schema = t list

val declare :
  ?default:Prairie_value.Value.t -> string -> Prairie_value.Value.ty -> t
(** [declare name ty] declares a property; the default defaults to [Null]
    except for [ORDER]-typed properties, which default to DONT_CARE, and
    [PREDICATE]-typed ones, which default to [True]. *)

val find : schema -> string -> t option

val mem : schema -> string -> bool

val cost_properties : schema -> string list
(** Names of the [COST]-typed properties — classified as cost by P2V. *)
