module Descriptor = Prairie.Descriptor
module Expr = Prairie.Expr

type t =
  | Leaf of string * Descriptor.t
  | Alg of string * Descriptor.t * t list

let descriptor = function
  | Leaf (_, d) -> d
  | Alg (_, d, _) -> d

let cost t = Descriptor.cost (descriptor t)

let algorithms t =
  let rec go acc = function
    | Leaf _ -> acc
    | Alg (name, _, inputs) ->
      let acc = if List.mem name acc then acc else name :: acc in
      List.fold_left go acc inputs
  in
  List.sort String.compare (go [] t)

let rec size = function
  | Leaf _ -> 1
  | Alg (_, _, inputs) -> List.fold_left (fun n p -> n + size p) 1 inputs

let rec to_expr = function
  | Leaf (name, d) -> Expr.Stored (name, d)
  | Alg (name, d, inputs) ->
    Expr.Node (Expr.Algorithm, name, d, List.map to_expr inputs)

let rec equal a b =
  match (a, b) with
  | Leaf (n1, d1), Leaf (n2, d2) ->
    String.equal n1 n2 && Descriptor.equal d1 d2
  | Alg (n1, d1, xs1), Alg (n2, d2, xs2) ->
    String.equal n1 n2 && Descriptor.equal d1 d2 && List.equal equal xs1 xs2
  | Leaf _, Alg _ | Alg _, Leaf _ -> false

let rec pp ppf = function
  | Leaf (name, _) -> Format.pp_print_string ppf name
  | Alg (name, _, inputs) ->
    Format.fprintf ppf "%s(" name;
    List.iteri
      (fun i p ->
        if i > 0 then Format.fprintf ppf ", ";
        pp ppf p)
      inputs;
    Format.fprintf ppf ")"

let rec pp_verbose ppf = function
  | Leaf (name, d) ->
    Format.fprintf ppf "%s  (card %s)" name
      (Prairie_value.Value.to_repr (Descriptor.get d "num_records"))
  | Alg (name, d, inputs) ->
    Format.fprintf ppf "@[<v 2>%s  (cost %.2f)" name (Descriptor.cost d);
    List.iter (fun p -> Format.fprintf ppf "@,%a" pp_verbose p) inputs;
    Format.fprintf ppf "@]"
