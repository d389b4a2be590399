module Value = Prairie_value.Value
module Attribute = Prairie_value.Attribute
module Predicate = Prairie_value.Predicate
module Order = Prairie_value.Order
module Catalog = Prairie_catalog.Catalog
module Stats = Prairie_catalog.Stats
module Helper_env = Prairie.Helper_env

module F = struct
  let rec strictly_sorted = function
    | a :: (b :: _ as rest) -> Attribute.compare a b < 0 && strictly_sorted rest
    | [] | [ _ ] -> true

  (* Attribute lists are almost always sorted and duplicate-free already
     (every union is): a linear merge then gives what the sort would. *)
  let union_attrs a b =
    if strictly_sorted a && strictly_sorted b then begin
      let rec merge acc a b =
        match (a, b) with
        | [], rest | rest, [] -> List.rev_append acc rest
        | x :: a', y :: b' ->
          let c = Attribute.compare x y in
          if c < 0 then merge (x :: acc) a' b
          else if c > 0 then merge (y :: acc) a b'
          else merge (x :: acc) a' b'
      in
      merge [] a b
    end
    else List.sort_uniq Attribute.compare (a @ b)

  let mem_attr a al = List.exists (Attribute.equal a) al

  let pred_refs_only p al =
    Attribute.Set.for_all (fun a -> mem_attr a al) (Predicate.attributes p)

  let pred_refs_any p al =
    Attribute.Set.exists (fun a -> mem_attr a al) (Predicate.attributes p)

  let attrs_subset a b = List.for_all (fun x -> mem_attr x b) a

  let canonical_and p q =
    Predicate.of_conjuncts
      (List.sort_uniq Predicate.compare
         (Predicate.conjuncts p @ Predicate.conjuncts q))

  let join_order pred side_attrs =
    let attrs =
      List.filter_map
        (fun (a, b) ->
          if mem_attr a side_attrs then Some a
          else if mem_attr b side_attrs then Some b
          else None)
        (Predicate.equality_pairs pred)
    in
    Order.sorted (List.sort_uniq Attribute.compare attrs)

  let is_ref_join catalog pred =
    List.exists
      (fun (a, b) ->
        let follows x y =
          match Catalog.ref_target catalog x with
          | Some target -> String.equal target (Attribute.owner y)
          | None -> false
        in
        follows a b || follows b a)
      (Predicate.equality_pairs pred)

  let matched_index pred indexed =
    List.find_map
      (fun (a, _) ->
        if List.exists (Attribute.equal a) indexed then Some a else None)
      (Predicate.equality_constants pred)

  let indexed_selection pred indexed = Option.is_some (matched_index pred indexed)

  let index_order pred indexed =
    match matched_index pred indexed with
    | Some a -> Order.sorted_on a
    | None -> Order.any

  let indexed_selectivity catalog pred indexed =
    match matched_index pred indexed with
    | Some a -> 1.0 /. float_of_int (Catalog.distinct_of catalog a)
    | None -> 1.0

  let mat_added_attrs catalog mat_attr =
    match mat_attr with
    | [ a ] -> (
      match Catalog.ref_target catalog a with
      | Some target -> (
        match Catalog.find catalog target with
        | Some file ->
          List.sort Attribute.compare (Prairie_catalog.Stored_file.attributes file)
        | None -> [])
      | None -> [])
    | _ -> []

  let mat_added_size catalog mat_attr =
    match mat_attr with
    | [ a ] -> (
      match Catalog.ref_target catalog a with
      | Some target -> (
        match Catalog.find catalog target with
        | Some file -> file.Prairie_catalog.Stored_file.tuple_size
        | None -> 0)
      | None -> 0)
    | _ -> 0

  let unnest_fanout catalog attr =
    match attr with
    | [ a ] -> max 1 (Catalog.distinct_of catalog a)
    | _ -> 1
end

let err = Helper_env.error

let get_attrs name = function
  | Value.Attrs a -> a
  | Value.Null -> []
  | v -> err name ("expected attributes, got " ^ Value.to_repr v)

let get_pred name = function
  | Value.Pred p -> p
  | Value.Null -> Predicate.True
  | v -> err name ("expected predicate, got " ^ Value.to_repr v)

let get_int name = function
  | Value.Int i -> i
  | v -> err name ("expected int, got " ^ Value.to_repr v)

let get_float name = function
  | Value.Float f -> f
  | Value.Int i -> float_of_int i
  | v -> err name ("expected float, got " ^ Value.to_repr v)

let a1 name f = function
  | [ x ] -> f x
  | args -> err name (Printf.sprintf "expected 1 argument, got %d" (List.length args))

let a2 name f = function
  | [ x; y ] -> f x y
  | args -> err name (Printf.sprintf "expected 2 arguments, got %d" (List.length args))

let a3 name f = function
  | [ x; y; z ] -> f x y z
  | args -> err name (Printf.sprintf "expected 3 arguments, got %d" (List.length args))

let a4 name f = function
  | [ x; y; z; w ] -> f x y z w
  | args -> err name (Printf.sprintf "expected 4 arguments, got %d" (List.length args))

(* The rule files name the join-order helper after the input it orders;
   both names compute the same [F.join_order]. *)
let join_order name =
  ( name,
    a2 name (fun p attrs ->
        Value.Order
          (F.join_order (get_pred name p) (get_attrs name attrs))) )

let env catalog =
  let open Value in
  Helper_env.builtins
  |> Helper_env.add_all
       [
         (* --- predicates and attributes --- *)
         ( "union_attrs",
           a2 "union_attrs" (fun a b ->
               Attrs
                 (F.union_attrs
                    (get_attrs "union_attrs" a)
                    (get_attrs "union_attrs" b))) );
         ( "pred_refs_only",
           a2 "pred_refs_only" (fun p attrs ->
               Bool
                 (F.pred_refs_only
                    (get_pred "pred_refs_only" p)
                    (get_attrs "pred_refs_only" attrs))) );
         ( "pred_refs_any",
           a2 "pred_refs_any" (fun p attrs ->
               Bool
                 (F.pred_refs_any
                    (get_pred "pred_refs_any" p)
                    (get_attrs "pred_refs_any" attrs))) );
         ( "attrs_subset",
           a2 "attrs_subset" (fun a b ->
               Bool
                 (F.attrs_subset
                    (get_attrs "attrs_subset" a)
                    (get_attrs "attrs_subset" b))) );
         ( "pred_is_true",
           a1 "pred_is_true" (fun p ->
               Bool (Predicate.equal (get_pred "pred_is_true" p) Predicate.True)) );
         ( "has_conjuncts",
           a1 "has_conjuncts" (fun p ->
               Bool
                 (List.length (Predicate.conjuncts (get_pred "has_conjuncts" p))
                 >= 2)) );
         ( "first_conjunct",
           a1 "first_conjunct" (fun p ->
               match Predicate.conjuncts (get_pred "first_conjunct" p) with
               | [] -> Pred Predicate.True
               | c :: _ -> Pred c) );
         ( "rest_conjuncts",
           a1 "rest_conjuncts" (fun p ->
               match Predicate.conjuncts (get_pred "rest_conjuncts" p) with
               | [] -> Pred Predicate.True
               | _ :: rest -> Pred (Predicate.of_conjuncts rest)) );
         ( "and_pred",
           a2 "and_pred" (fun p q ->
               Pred
                 (F.canonical_and (get_pred "and_pred" p)
                    (get_pred "and_pred" q))) );
         ( "is_equijoin",
           a1 "is_equijoin" (fun p ->
               Bool (Predicate.is_equijoin (get_pred "is_equijoin" p))) );
         ( "is_ref_join",
           a1 "is_ref_join" (fun p ->
               Bool (F.is_ref_join catalog (get_pred "is_ref_join" p))) );
         (* --- statistics --- *)
         ( "join_cardinality",
           a3 "join_cardinality" (fun nl nr p ->
               Int
                 (Stats.join_cardinality catalog
                    ~left:(get_int "join_cardinality" nl)
                    ~right:(get_int "join_cardinality" nr)
                    (get_pred "join_cardinality" p))) );
         ( "select_cardinality",
           a2 "select_cardinality" (fun n p ->
               Int
                 (Stats.select_cardinality catalog
                    ~input:(get_int "select_cardinality" n)
                    (get_pred "select_cardinality" p))) );
         ( "unnest_cardinality",
           a2 "unnest_cardinality" (fun n attr ->
               Int
                 (get_int "unnest_cardinality" n
                 * F.unnest_fanout catalog (get_attrs "unnest_cardinality" attr))) );
         ( "mat_added_attrs",
           a1 "mat_added_attrs" (fun attr ->
               Attrs (F.mat_added_attrs catalog (get_attrs "mat_added_attrs" attr))) );
         ( "mat_added_size",
           a1 "mat_added_size" (fun attr ->
               Int (F.mat_added_size catalog (get_attrs "mat_added_size" attr))) );
         (* --- orders and indexes --- *)
         ( "attrs_order",
           a1 "attrs_order" (fun attrs ->
               Order (Order.sorted (get_attrs "attrs_order" attrs))) );
         ( "group_cardinality",
           a2 "group_cardinality" (fun n attrs ->
               let n = get_int "group_cardinality" n in
               let groups =
                 List.fold_left
                   (fun acc a ->
                     (* saturating product of distinct counts *)
                     min n (acc * Catalog.distinct_of catalog a))
                   1
                   (get_attrs "group_cardinality" attrs)
               in
               Int (min n (max 1 groups))) );
         ( "cost_hash_agg",
           a2 "cost_hash_agg" (fun c n ->
               Float
                 (Cost_model.hash_agg
                    ~input_cost:(get_float "cost_hash_agg" c)
                    ~input_card:(get_int "cost_hash_agg" n))) );
         ( "cost_sort_agg",
           a2 "cost_sort_agg" (fun c n ->
               Float
                 (Cost_model.sort_agg
                    ~input_cost:(get_float "cost_sort_agg" c)
                    ~input_card:(get_int "cost_sort_agg" n))) );
         join_order "lhs_join_order";
         join_order "rhs_join_order";
         ( "indexed_selection",
           a2 "indexed_selection" (fun p idx ->
               Bool
                 (F.indexed_selection
                    (get_pred "indexed_selection" p)
                    (get_attrs "indexed_selection" idx))) );
         ( "index_order",
           a2 "index_order" (fun p idx ->
               Order
                 (F.index_order (get_pred "index_order" p)
                    (get_attrs "index_order" idx))) );
         (* --- costs --- *)
         ( "cost_file_scan",
           a2 "cost_file_scan" (fun card tsize ->
               Float
                 (Cost_model.file_scan
                    ~card:(get_int "cost_file_scan" card)
                    ~tuple_size:(get_int "cost_file_scan" tsize))) );
         ( "cost_index_scan",
           a4 "cost_index_scan" (fun card tsize pred idx ->
               Float
                 (Cost_model.index_scan
                    ~card:(get_int "cost_index_scan" card)
                    ~tuple_size:(get_int "cost_index_scan" tsize)
                    ~selectivity:
                      (F.indexed_selectivity catalog
                         (get_pred "cost_index_scan" pred)
                         (get_attrs "cost_index_scan" idx)))) );
         ( "cost_merge_join",
           a4 "cost_merge_join" (fun c1 c2 n1 n2 ->
               Float
                 (Cost_model.merge_join
                    ~left_cost:(get_float "cost_merge_join" c1)
                    ~right_cost:(get_float "cost_merge_join" c2)
                    ~left_card:(get_int "cost_merge_join" n1)
                    ~right_card:(get_int "cost_merge_join" n2))) );
         ( "cost_hash_join",
           a4 "cost_hash_join" (fun c1 c2 n1 n2 ->
               Float
                 (Cost_model.hash_join
                    ~left_cost:(get_float "cost_hash_join" c1)
                    ~right_cost:(get_float "cost_hash_join" c2)
                    ~left_card:(get_int "cost_hash_join" n1)
                    ~right_card:(get_int "cost_hash_join" n2))) );
         ( "cost_pointer_join",
           a3 "cost_pointer_join" (fun c1 c2 n1 ->
               Float
                 (Cost_model.pointer_join
                    ~outer_cost:(get_float "cost_pointer_join" c1)
                    ~inner_cost:(get_float "cost_pointer_join" c2)
                    ~outer_card:(get_int "cost_pointer_join" n1))) );
         ( "cost_sort",
           a2 "cost_sort" (fun c n ->
               Float
                 (Cost_model.merge_sort
                    ~input_cost:(get_float "cost_sort" c)
                    ~card:(get_int "cost_sort" n))) );
         ( "cost_filter",
           a2 "cost_filter" (fun c n ->
               Float
                 (Cost_model.filter
                    ~input_cost:(get_float "cost_filter" c)
                    ~input_card:(get_int "cost_filter" n))) );
         ( "cost_project",
           a2 "cost_project" (fun c n ->
               Float
                 (Cost_model.project
                    ~input_cost:(get_float "cost_project" c)
                    ~input_card:(get_int "cost_project" n))) );
         ( "cost_mat_ordered",
           a2 "cost_mat_ordered" (fun c n ->
               Float
                 (Cost_model.mat_ordered
                    ~input_cost:(get_float "cost_mat_ordered" c)
                    ~card:(get_int "cost_mat_ordered" n))) );
         ( "cost_mat_unordered",
           a2 "cost_mat_unordered" (fun c n ->
               Float
                 (Cost_model.mat_unordered
                    ~input_cost:(get_float "cost_mat_unordered" c)
                    ~card:(get_int "cost_mat_unordered" n))) );
         ( "cost_unnest",
           a2 "cost_unnest" (fun c n ->
               Float
                 (Cost_model.unnest
                    ~input_cost:(get_float "cost_unnest" c)
                    ~output_card:(get_int "cost_unnest" n))) );
         ( "cost_ship",
           a3 "cost_ship" (fun c n size ->
               Float
                 (Cost_model.ship
                    ~input_cost:(get_float "cost_ship" c)
                    ~card:(get_int "cost_ship" n)
                    ~tuple_size:(get_int "cost_ship" size))) );
       ]
