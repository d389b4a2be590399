type node_kind =
  | Operator
  | Algorithm

type t =
  | Stored of string * Descriptor.t
  | Node of node_kind * string * Descriptor.t * t list

let stored ?(desc = Descriptor.empty) name = Stored (name, desc)
let operator name desc inputs = Node (Operator, name, desc, inputs)
let algorithm name desc inputs = Node (Algorithm, name, desc, inputs)

let descriptor = function
  | Stored (_, d) -> d
  | Node (_, _, d, _) -> d

let with_descriptor t d =
  match t with
  | Stored (name, _) -> Stored (name, d)
  | Node (kind, name, _, inputs) -> Node (kind, name, d, inputs)

let map_descriptor t f = with_descriptor t (f (descriptor t))
let inputs = function Stored _ -> [] | Node (_, _, _, xs) -> xs

let label = function
  | Stored (name, _) -> name
  | Node (_, name, _, _) -> name

let rec all_interior p = function
  | Stored _ -> true
  | Node (kind, _, _, xs) -> p kind && List.for_all (all_interior p) xs

let is_operator_tree t = all_interior (fun k -> k = Operator) t
let is_access_plan t = all_interior (fun k -> k = Algorithm) t

let rec size = function
  | Stored _ -> 1
  | Node (_, _, _, xs) -> List.fold_left (fun n x -> n + size x) 1 xs

let operators_used t =
  let rec go acc = function
    | Stored _ -> acc
    | Node (_, name, _, xs) ->
      let acc = if List.mem name acc then acc else name :: acc in
      List.fold_left go acc xs
  in
  List.sort String.compare (go [] t)

let stored_files t =
  let rec go acc = function
    | Stored (name, _) -> name :: acc
    | Node (_, _, _, xs) -> List.fold_left go acc xs
  in
  List.rev (go [] t)

let cost t = Descriptor.cost (descriptor t)

let rec equal a b =
  match (a, b) with
  | Stored (n1, d1), Stored (n2, d2) -> String.equal n1 n2 && Descriptor.equal d1 d2
  | Node (k1, n1, d1, xs1), Node (k2, n2, d2, xs2) ->
    k1 = k2 && String.equal n1 n2 && Descriptor.equal d1 d2
    && List.equal equal xs1 xs2
  | Stored _, Node _ | Node _, Stored _ -> false

let rec equal_shape a b =
  match (a, b) with
  | Stored (n1, _), Stored (n2, _) -> String.equal n1 n2
  | Node (k1, n1, _, xs1), Node (k2, n2, _, xs2) ->
    k1 = k2 && String.equal n1 n2 && List.equal equal_shape xs1 xs2
  | Stored _, Node _ | Node _, Stored _ -> false

let rec compare a b =
  match (a, b) with
  | Stored (n1, d1), Stored (n2, d2) -> (
    match String.compare n1 n2 with
    | 0 -> Descriptor.compare d1 d2
    | c -> c)
  | Stored _, Node _ -> -1
  | Node _, Stored _ -> 1
  | Node (k1, n1, d1, xs1), Node (k2, n2, d2, xs2) -> (
    match Stdlib.compare k1 k2 with
    | 0 -> (
      match String.compare n1 n2 with
      | 0 -> (
        match List.compare compare xs1 xs2 with
        | 0 -> Descriptor.compare d1 d2
        | c -> c)
      | c -> c)
    | c -> c)

let rec hash = function
  | Stored (n, d) -> Hashtbl.hash (0, n, Descriptor.hash d)
  | Node (k, n, d, xs) ->
    Hashtbl.hash (1, k, n, Descriptor.hash d, List.map hash xs)

let fingerprint ?(required = Descriptor.empty) t =
  let buf = Buffer.create 256 in
  let name n =
    Buffer.add_string buf (string_of_int (String.length n));
    Buffer.add_char buf ':';
    Buffer.add_string buf n
  in
  let rec go = function
    | Stored (n, d) ->
      Buffer.add_char buf 's';
      name n;
      Descriptor.add_fingerprint buf d
    | Node (kind, n, d, xs) ->
      Buffer.add_char buf (match kind with Operator -> 'o' | Algorithm -> 'a');
      name n;
      Descriptor.add_fingerprint buf d;
      Buffer.add_char buf '(';
      List.iter go xs;
      Buffer.add_char buf ')'
  in
  go t;
  Buffer.add_char buf '|';
  Descriptor.add_fingerprint buf required;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let rec pp ppf = function
  | Stored (name, _) -> Format.pp_print_string ppf name
  | Node (_, name, _, xs) ->
    Format.fprintf ppf "%s(" name;
    List.iteri
      (fun i x ->
        if i > 0 then Format.fprintf ppf ", ";
        pp ppf x)
      xs;
    Format.fprintf ppf ")"

let to_string t = Format.asprintf "%a" pp t
