type t =
  | Pvar of int
  | Pop of string * string * t list

type tmpl =
  | Tvar of int * string option
  | Tnode of string * string * tmpl list

(* the names of the first stream variables, built once: rule translation
   asks for them repeatedly *)
let small_desc_names = Array.init 16 (fun i -> "D" ^ string_of_int i)

let stream_desc_name i =
  if i >= 0 && i < Array.length small_desc_names then small_desc_names.(i)
  else "D" ^ string_of_int i

module Binding = struct
  type binding = {
    streams : (int * Expr.t) list;
    descs : (string * Descriptor.t) list;
  }

  type t = binding

  let empty = { streams = []; descs = [] }
  let stream_opt b i = List.assoc_opt i b.streams

  let stream b i =
    match stream_opt b i with
    | Some e -> e
    | None -> invalid_arg (Printf.sprintf "unbound stream variable ?%d" i)

  let desc_opt b d = List.assoc_opt d b.descs

  let desc b d =
    match desc_opt b d with Some x -> x | None -> Descriptor.empty

  let bind_desc b d v = { b with descs = (d, v) :: List.remove_assoc d b.descs }

  let bind_stream b i e =
    { b with streams = (i, e) :: List.remove_assoc i b.streams }
end

let rec match_at pat (e : Expr.t) b =
  match pat with
  | Pvar i ->
    let b = Binding.bind_stream b i e in
    Some (Binding.bind_desc b (stream_desc_name i) (Expr.descriptor e))
  | Pop (name, dvar, subpats) -> (
    match e with
    | Expr.Node (Expr.Operator, n, d, inputs)
      when String.equal n name && List.length inputs = List.length subpats ->
      let b = Binding.bind_desc b dvar d in
      List.fold_left2
        (fun acc p x ->
          match acc with None -> None | Some b -> match_at p x b)
        (Some b) subpats inputs
    | Expr.Node _ | Expr.Stored _ -> None)

let matches pat e = match_at pat e Binding.empty

let vars pat =
  let rec go acc = function
    | Pvar i -> if List.mem i acc then acc else i :: acc
    | Pop (_, _, subpats) -> List.fold_left go acc subpats
  in
  List.sort Int.compare (go [] pat)

let tmpl_vars t =
  let rec go acc = function
    | Tvar (i, _) -> if List.mem i acc then acc else i :: acc
    | Tnode (_, _, subs) -> List.fold_left go acc subs
  in
  List.sort Int.compare (go [] t)

let desc_vars pat =
  let rec go acc = function
    | Pvar i ->
      let d = stream_desc_name i in
      if List.mem d acc then acc else d :: acc
    | Pop (_, dvar, subpats) ->
      let acc = if List.mem dvar acc then acc else dvar :: acc in
      List.fold_left go acc subpats
  in
  List.sort String.compare (go [] pat)

let tmpl_desc_vars t =
  let rec go acc = function
    | Tvar (_, None) -> acc
    | Tvar (_, Some d) -> if List.mem d acc then acc else d :: acc
    | Tnode (_, dvar, subs) ->
      let acc = if List.mem dvar acc then acc else dvar :: acc in
      List.fold_left go acc subs
  in
  List.sort String.compare (go [] t)

let tmpl_nodes t =
  let rec go acc = function
    | Tvar _ -> acc
    | Tnode (name, dvar, subs) -> List.fold_left go ((name, dvar) :: acc) subs
  in
  List.rev (go [] t)

let ops pat =
  let rec go acc = function
    | Pvar _ -> acc
    | Pop (name, _, subs) -> List.fold_left go ((name, List.length subs) :: acc) subs
  in
  List.rev (go [] pat)

let tmpl_ops t =
  let rec go acc = function
    | Tvar _ -> acc
    | Tnode (name, _, subs) -> List.fold_left go ((name, List.length subs) :: acc) subs
  in
  List.rev (go [] t)

let root_operator = function
  | Pvar _ -> None
  | Pop (name, _, _) -> Some name

let rec instantiate ~kind tmpl (b : Binding.t) =
  match tmpl with
  | Tvar (i, redesc) -> (
    let sub = Binding.stream b i in
    match redesc with
    | None -> sub
    | Some d -> Expr.with_descriptor sub (Binding.desc b d))
  | Tnode (name, dvar, subs) ->
    Expr.Node
      (kind, name, Binding.desc b dvar,
       List.map (fun s -> instantiate ~kind s b) subs)

let rec equal a b =
  match (a, b) with
  | Pvar i, Pvar j -> Int.equal i j
  | Pop (n1, d1, xs1), Pop (n2, d2, xs2) ->
    String.equal n1 n2 && String.equal d1 d2 && List.equal equal xs1 xs2
  | Pvar _, Pop _ | Pop _, Pvar _ -> false
