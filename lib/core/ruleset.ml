type t = {
  name : string;
  properties : Property.schema;
  operators : (string * int) list;
  algorithms : (string * int) list;
  trules : Trule.t list;
  irules : Irule.t list;
  helpers : Helper_env.t;
}

let by_name xs = List.sort_uniq compare xs

let make ?(properties = []) ?(operators = []) ?(algorithms = []) ?(trules = [])
    ?(irules = []) ?(helpers = Helper_env.builtins) name =
  {
    name;
    properties;
    operators = by_name operators;
    algorithms = by_name algorithms;
    trules;
    irules;
    helpers;
  }

let irules_for t op =
  List.filter (fun r -> String.equal (Irule.operator r) op) t.irules

let trule_count t = List.length t.trules
let irule_count t = List.length t.irules

let find_trule t name =
  List.find_opt (fun (r : Trule.t) -> String.equal r.name name) t.trules

let find_irule t name =
  List.find_opt (fun (r : Irule.t) -> String.equal r.name name) t.irules

let combine ~name a b =
  let properties =
    a.properties
    @ List.filter
        (fun (p : Property.t) ->
          match Property.find a.properties p.Property.name with
          | None -> true
          | Some existing ->
            if existing.Property.ty <> p.Property.ty then
              invalid_arg
                (Printf.sprintf
                   "Ruleset.combine: property %s declared with different types"
                   p.Property.name);
            false)
        b.properties
  in
  let dedup_rules get_name eq xs ys =
    xs
    @ List.filter
        (fun y ->
          match List.find_opt (fun x -> String.equal (get_name x) (get_name y)) xs with
          | None -> true
          | Some x ->
            if not (eq x y) then
              invalid_arg
                (Printf.sprintf
                   "Ruleset.combine: rule %s exists in both sets with \
                    different definitions"
                   (get_name y));
            false)
        ys
  in
  let trules =
    dedup_rules
      (fun (r : Trule.t) -> r.Trule.name)
      (fun x y -> x = y)
      a.trules b.trules
  in
  let irules =
    dedup_rules
      (fun (r : Irule.t) -> r.Irule.name)
      (fun x y -> x = y)
      a.irules b.irules
  in
  let declarations kind xs ys =
    let all = by_name (xs @ ys) in
    List.iter
      (fun (n, arity) ->
        if List.exists (fun (m, a) -> String.equal m n && a <> arity) all then
          invalid_arg
            (Printf.sprintf
               "Ruleset.combine: %s %s declared with different arities" kind n))
      all;
    all
  in
  make ~properties
    ~operators:(declarations "operator" a.operators b.operators)
    ~algorithms:(declarations "algorithm" a.algorithms b.algorithms)
    ~trules ~irules
    ~helpers:(Helper_env.merge a.helpers b.helpers)
    name

let spec_size t =
  let stmt_count =
    List.fold_left
      (fun n (r : Trule.t) ->
        n + List.length r.pre_test + List.length r.post_test + 1)
      0 t.trules
    + List.fold_left
        (fun n (r : Irule.t) ->
          n + List.length r.pre_opt + List.length r.post_opt + 1)
        0 t.irules
  in
  trule_count t + irule_count t + stmt_count + List.length t.properties
