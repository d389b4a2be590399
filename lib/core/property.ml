module Value = Prairie_value.Value
module Order = Prairie_value.Order
module Predicate = Prairie_value.Predicate

type t = {
  name : string;
  ty : Value.ty;
  default : Value.t;
}

type schema = t list

let declare ?default name ty =
  let default =
    match default with
    | Some v -> v
    | None -> (
      match ty with
      | Value.T_order -> Value.Order Order.Any
      | Value.T_pred -> Value.Pred Predicate.True
      | _ -> Value.Null)
  in
  { name; ty; default }

let find schema name = List.find_opt (fun p -> String.equal p.name name) schema
let mem schema name = Option.is_some (find schema name)

let cost_properties schema =
  List.filter_map
    (fun p -> if p.ty = Value.T_cost then Some p.name else None)
    schema
