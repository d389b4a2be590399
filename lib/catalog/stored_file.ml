module Attribute = Prairie_value.Attribute

type kind =
  | Relation
  | Class

type column = {
  attr : Attribute.t;
  distinct : int;
  ref_to : string option;
  set_valued : bool;
}

type index = {
  index_name : string;
  on : Attribute.t;
  unique : bool;
}

type t = {
  name : string;
  kind : kind;
  columns : column list;
  cardinality : int;
  tuple_size : int;
  indexes : index list;
}

let column ?(distinct = 10) ?ref_to ?(set_valued = false) owner name =
  { attr = Attribute.make ~owner ~name; distinct; ref_to; set_valued }

let make ?(kind = Class) ?(tuple_size = 100) ?(indexes = []) ~name ~cardinality
    columns =
  { name; kind; columns; cardinality; tuple_size; indexes }

let attributes t = List.map (fun c -> c.attr) t.columns

let find_column t name =
  List.find_opt (fun c -> String.equal (Attribute.name c.attr) name) t.columns

let index_on t attr =
  List.find_opt (fun ix -> Attribute.equal ix.on attr) t.indexes

let has_index_on t attr = Option.is_some (index_on t attr)

let pages ~page_size t =
  max 1 ((t.cardinality * t.tuple_size + page_size - 1) / page_size)
