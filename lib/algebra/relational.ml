let ruleset catalog =
  Prairie_dsl.Elaborate.elaborate ~helpers:(Helpers.env catalog)
    Shipped.relational

(* ------------------------------------------------------------------ *)
(* Catalog and query construction                                      *)
(* ------------------------------------------------------------------ *)

let relation ?(indexes = []) ?tuple_size ~name ~cardinality columns =
  let cols =
    List.map
      (fun (col, distinct) -> Prairie_catalog.Stored_file.column ~distinct name col)
      columns
  in
  let ixs =
    List.map
      (fun col ->
        {
          Prairie_catalog.Stored_file.index_name = name ^ "_" ^ col ^ "_ix";
          on = Prairie_value.Attribute.make ~owner:name ~name:col;
          unique = false;
        })
      indexes
  in
  Prairie_catalog.Stored_file.make ~kind:Prairie_catalog.Stored_file.Relation
    ?tuple_size ~indexes:ixs ~name ~cardinality cols

let ret = Init.ret
let join = Init.join
let sort = Init.sort
