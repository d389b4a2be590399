module Value = Prairie_value.Value
module Order = Prairie_value.Order
module Descriptor = Prairie.Descriptor
module Expr = Prairie.Expr

exception Unsupported of string

let spred d = Descriptor.get_pred d "selection_predicate"
let jpred d = Descriptor.get_pred d "join_predicate"
let order_attrs d = Order.attributes (Descriptor.get_order d "tuple_order")

let single_attr d prop what =
  match Descriptor.get_attrs d prop with
  | [ a ] -> a
  | _ -> raise (Unsupported (what ^ ": expected a single attribute in " ^ prop))

let rec compile db (e : Expr.t) : Iterator.t =
  match e with
  | Expr.Stored (name, _) ->
    (* bare stored file (input of a scan); expose all rows *)
    let table = Table.find db name in
    Iterator.of_array table.Table.schema table.Table.rows
  | Expr.Node (Expr.Operator, name, _, _) ->
    invalid_arg ("Compile.compile: abstract operator " ^ name ^ " in plan")
  | Expr.Node (Expr.Algorithm, alg, d, inputs) -> compile_alg db alg d inputs

and compile_alg db alg d inputs =
  let input n =
    match List.nth_opt inputs n with
    | Some i -> compile db i
    | None -> raise (Unsupported (alg ^ ": missing input " ^ string_of_int n))
  in
  let table_of n =
    match List.nth_opt inputs n with
    | Some (Expr.Stored (name, _)) -> Table.find db name
    | _ -> raise (Unsupported (alg ^ ": expected a stored file input"))
  in
  match alg with
  | "File_scan" -> Iterator.scan (table_of 0) ~pred:(spred d)
  | "Index_scan" ->
    Iterator.index_scan (table_of 0) ~pred:(spred d) ~order:(order_attrs d)
  | "Filter" -> Iterator.filter (input 0) ~pred:(spred d)
  | "Project_alg" ->
    Iterator.project (input 0) ~attrs:(Descriptor.get_attrs d "projected_attributes")
  | "Nested_loops" -> Iterator.nested_loops (input 0) (input 1) ~pred:(jpred d)
  | "Hash_join" | "Pointer_join" ->
    Iterator.hash_join (input 0) (input 1) ~pred:(jpred d)
  | "Merge_join" -> Iterator.merge_join (input 0) (input 1) ~pred:(jpred d)
  | "Merge_sort" -> Iterator.sort (input 0) ~order:(order_attrs d)
  | "Mat_deref" ->
    Iterator.mat_deref db (input 0) ~attr:(single_attr d "mat_attribute" alg)
  | "Unnest_scan" ->
    Iterator.unnest (input 0) ~attr:(single_attr d "unnest_attribute" alg)
  | "Hash_agg" ->
    Iterator.hash_aggregate (input 0)
      ~by:(Descriptor.get_attrs d "group_attributes")
  | "Sort_agg" ->
    Iterator.stream_aggregate (input 0)
      ~by:(Descriptor.get_attrs d "group_attributes")
  | "Null" -> Iterator.null (input 0)
  | other -> raise (Unsupported other)

let execute db e =
  let it = compile db e in
  (it.Iterator.schema, Array.to_list (Iterator.materialize it))

let execute_plan db plan = execute db (Prairie_volcano.Plan.to_expr plan)

let canonical_result (schema, rows) =
  List.sort compare (List.map (Tuple.canonical schema) rows)
