module N = Names
module Value = Prairie_value.Value
module Attribute = Prairie_value.Attribute
module Descriptor = Prairie.Descriptor
module Expr = Prairie.Expr

let count_attr = Attribute.make ~owner:"agg" ~name:"count"

let fragment catalog =
  Prairie_dsl.Elaborate.elaborate ~helpers:(Helpers.env catalog)
    Shipped.aggregates

let extended_relational catalog =
  Prairie.Ruleset.combine ~name:"relational_with_aggregates"
    (Relational.ruleset catalog) (fragment catalog)

let agg catalog ~by input =
  let di = Expr.descriptor input in
  let by = List.sort_uniq Attribute.compare by in
  let input_card = Descriptor.get_int di N.p_num_records in
  let groups =
    List.fold_left
      (fun acc a ->
        min input_card (acc * Prairie_catalog.Catalog.distinct_of catalog a))
      1 by
    |> max 1
    |> min input_card
  in
  let desc =
    Descriptor.of_list
      [
        (N.p_group_attributes, Value.Attrs by);
        (N.p_attributes, Value.Attrs (Helpers.F.union_attrs by [ count_attr ]));
        (N.p_num_records, Value.Int groups);
        (N.p_tuple_size, Value.Int (8 + (8 * List.length by)));
      ]
  in
  Expr.operator N.agg desc [ input ]
