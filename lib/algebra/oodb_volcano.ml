module Value = Prairie_value.Value
module Attribute = Prairie_value.Attribute
module Predicate = Prairie_value.Predicate
module Order = Prairie_value.Order
module Catalog = Prairie_catalog.Catalog
module Stats = Prairie_catalog.Stats
module Descriptor = Prairie.Descriptor
module Expr = Prairie.Expr
module Rule = Prairie_volcano.Rule
module N = Names
module F = Helpers.F

open Build (* pattern shorthand: p, v, t, tv *)

(* ------------------------------------------------------------------ *)
(* Descriptor accessors (local shorthand)                              *)
(* ------------------------------------------------------------------ *)

let attrs d = Descriptor.get_attrs d N.p_attributes
let card d = Descriptor.get_int d N.p_num_records
let size d = Descriptor.get_int d N.p_tuple_size
let order d = Descriptor.get_order d N.p_tuple_order
let jpred d = Descriptor.get_pred d N.p_join_predicate
let spred d = Descriptor.get_pred d N.p_selection_predicate
let mat_attr d = Descriptor.get_attrs d N.p_mat_attribute
let unnest_attr d = Descriptor.get_attrs d N.p_unnest_attribute
let indexes d = Descriptor.get_attrs d N.p_indexes
let dcost d = Descriptor.cost d
let set_attrs d v = Descriptor.set d N.p_attributes (Value.Attrs v)
let set_card d v = Descriptor.set d N.p_num_records (Value.Int v)
let set_size d v = Descriptor.set d N.p_tuple_size (Value.Int v)
let set_order d v = Descriptor.set d N.p_tuple_order (Value.Order v)
let set_jpred d v = Descriptor.set d N.p_join_predicate (Value.Pred v)
let set_spred d v = Descriptor.set d N.p_selection_predicate (Value.Pred v)
let set_mat d v = Descriptor.set d N.p_mat_attribute (Value.Attrs v)
let set_unnest d v = Descriptor.set d N.p_unnest_attribute (Value.Attrs v)
let set_cost d v = Descriptor.set_cost d v

let refs_only = F.pred_refs_only
let refs_any = F.pred_refs_any
let subset = F.attrs_subset

(* ------------------------------------------------------------------ *)
(* trans_rules                                                          *)
(* ------------------------------------------------------------------ *)

(* Each rule resolves its descriptor variables to slots once, when the
   rule set is built ([slot "D5"]); the closures read and write the slot
   array by index. *)
let always _ = true

let trans catalog : Rule.trans_rule list =
  let join_card l r pred = Stats.join_cardinality catalog ~left:l ~right:r pred in
  let sel_card n pred = Stats.select_cardinality catalog ~input:n pred in
  (* the associativity rules: [l] and [r] are the new inner join's inputs *)
  let assoc name ~lhs ~rhs ~l ~r =
    Rule.trans_rule ~name ~lhs ~rhs (fun slot ->
        let l = slot l and r = slot r in
        let d4 = slot "D4" and d5 = slot "D5" in
        let d6 = slot "D6" and d7 = slot "D7" in
        ( (fun env ->
            let a = F.union_attrs (attrs env.(l)) (attrs env.(r)) in
            env.(d6) <- set_attrs Descriptor.empty a;
            let pred = jpred env.(d5) in
            (not (Predicate.equal pred Predicate.True)) && refs_only pred a),
          fun env ->
            let jp = jpred env.(d5) in
            let inner = set_jpred env.(d6) jp in
            let inner = set_card inner (join_card (card env.(l)) (card env.(r)) jp) in
            env.(d6) <- set_size inner (size env.(l) + size env.(r));
            env.(d7) <- set_jpred env.(d5) (jpred env.(d4)) ))
  in
  (* select pushed below a unary or join input [input]: the pushed select's
     descriptor is D5, the moved node's D6 keeps D3 with D4's cardinality *)
  let push name ~lhs ~rhs ~input ~cond =
    Rule.trans_rule ~name ~lhs ~rhs (fun slot ->
        let input = slot input and d3 = slot "D3" and d4 = slot "D4" in
        let d5 = slot "D5" and d6 = slot "D6" in
        ( (fun env -> cond env ~input ~d3 ~pred:(spred env.(d4))),
          fun env ->
            let sp = spred env.(d4) in
            let pushed = set_spred Descriptor.empty sp in
            let pushed = set_attrs pushed (attrs env.(input)) in
            let pushed = set_card pushed (sel_card (card env.(input)) sp) in
            env.(d5) <- set_size pushed (size env.(input));
            env.(d6) <- set_card env.(d3) (card env.(d4)) ))
  in
  let refs_input env ~input ~d3:_ ~pred =
    (not (Predicate.equal pred Predicate.True)) && refs_only pred (attrs env.(input))
  in
  (* MAT pulled above a join: the join moves down as D5 *)
  let pull name lhs =
    Rule.trans_rule ~name ~lhs
      ~rhs:(t N.mat "D6" [ t N.join "D5" [ tv 1; tv 2 ] ])
      (fun slot ->
        let d1 = slot "D1" and d2 = slot "D2" and d3 = slot "D3" in
        let d4 = slot "D4" and d5 = slot "D5" and d6 = slot "D6" in
        ( (fun env ->
            let a = F.union_attrs (attrs env.(d1)) (attrs env.(d2)) in
            env.(d5) <- set_attrs Descriptor.empty a;
            refs_only (jpred env.(d4)) a),
          fun env ->
            let jp = jpred env.(d4) in
            let join = set_jpred env.(d5) jp in
            let join = set_card join (join_card (card env.(d1)) (card env.(d2)) jp) in
            env.(d5) <- set_size join (size env.(d1) + size env.(d2));
            let m = set_jpred env.(d4) Predicate.True in
            env.(d6) <- set_mat m (mat_attr env.(d3)) ))
  in
  (* the descriptor of MAT D4 pushed down onto input [input] *)
  let mat_pushed env ~input ~d4 =
    let ma = mat_attr env.(d4) in
    let d5 = set_mat Descriptor.empty ma in
    let d5 =
      set_attrs d5 (F.union_attrs (attrs env.(input)) (F.mat_added_attrs catalog ma))
    in
    let d5 = set_card d5 (card env.(input)) in
    set_size d5 (size env.(input) + F.mat_added_size catalog ma)
  in
  let mat_push_join name ~rhs ~input ~other ~attrs_of =
    Rule.trans_rule ~name
      ~lhs:(p N.mat "D4" [ p N.join "D3" [ v 1; v 2 ] ])
      ~rhs
      (fun slot ->
        let input = slot input and other = slot other in
        let d3 = slot "D3" and d4 = slot "D4" in
        let d5 = slot "D5" and d6 = slot "D6" in
        ( (fun env -> subset (mat_attr env.(d4)) (attrs env.(input))),
          fun env ->
            env.(d5) <- mat_pushed env ~input ~d4;
            let j = set_attrs env.(d3) (attrs_of (attrs env.(d5)) (attrs env.(other))) in
            env.(d6) <- set_size j (size env.(d5) + size env.(other)) ))
  in
  [
    Rule.trans_rule ~name:"join_commute"
      ~lhs:(p N.join "D3" [ v 1; v 2 ])
      ~rhs:(t N.join "D4" [ tv 2; tv 1 ])
      (fun slot ->
        let d3 = slot "D3" and d4 = slot "D4" in
        (always, fun env -> env.(d4) <- env.(d3)));
    assoc "join_assoc_left"
      ~lhs:(p N.join "D5" [ p N.join "D4" [ v 1; v 2 ]; v 3 ])
      ~rhs:(t N.join "D7" [ tv 1; t N.join "D6" [ tv 2; tv 3 ] ])
      ~l:"D2" ~r:"D3";
    assoc "join_assoc_right"
      ~lhs:(p N.join "D5" [ v 1; p N.join "D4" [ v 2; v 3 ] ])
      ~rhs:(t N.join "D7" [ t N.join "D6" [ tv 1; tv 2 ]; tv 3 ])
      ~l:"D1" ~r:"D2";
    Rule.trans_rule ~name:"select_split"
      ~lhs:(p N.select "D2" [ v 1 ])
      ~rhs:(t N.select "D4" [ t N.select "D3" [ tv 1 ] ])
      (fun slot ->
        let d1 = slot "D1" and d2 = slot "D2" in
        let d3 = slot "D3" and d4 = slot "D4" in
        ( (fun env -> List.length (Predicate.conjuncts (spred env.(d2))) >= 2),
          fun env ->
            let first, rest =
              match Predicate.conjuncts (spred env.(d2)) with
              | [] -> (Predicate.True, Predicate.True)
              | x :: xs -> (x, Predicate.of_conjuncts xs)
            in
            let inner = set_spred Descriptor.empty rest in
            let inner = set_attrs inner (attrs env.(d1)) in
            let inner = set_card inner (sel_card (card env.(d1)) rest) in
            env.(d3) <- set_size inner (size env.(d1));
            env.(d4) <- set_spred env.(d2) first ));
    Rule.trans_rule ~name:"select_merge"
      ~lhs:(p N.select "D4" [ p N.select "D3" [ v 1 ] ])
      ~rhs:(t N.select "D5" [ tv 1 ])
      (fun slot ->
        let d3 = slot "D3" and d4 = slot "D4" and d5 = slot "D5" in
        ( always,
          fun env ->
            env.(d5) <-
              set_spred env.(d4)
                (F.canonical_and (spred env.(d4)) (spred env.(d3))) ));
    Rule.trans_rule ~name:"select_commute"
      ~lhs:(p N.select "D4" [ p N.select "D3" [ v 1 ] ])
      ~rhs:(t N.select "D6" [ t N.select "D5" [ tv 1 ] ])
      (fun slot ->
        let d1 = slot "D1" and d3 = slot "D3" and d4 = slot "D4" in
        let d5 = slot "D5" and d6 = slot "D6" in
        ( always,
          fun env ->
            let inner = set_spred env.(d3) (spred env.(d4)) in
            env.(d5) <- set_card inner (sel_card (card env.(d1)) (spred env.(d4)));
            env.(d6) <- set_spred env.(d4) (spred env.(d3)) ));
    push "select_push_join_left"
      ~lhs:(p N.select "D4" [ p N.join "D3" [ v 1; v 2 ] ])
      ~rhs:(t N.join "D6" [ t N.select "D5" [ tv 1 ]; tv 2 ])
      ~input:"D1" ~cond:refs_input;
    push "select_push_join_right"
      ~lhs:(p N.select "D4" [ p N.join "D3" [ v 1; v 2 ] ])
      ~rhs:(t N.join "D6" [ tv 1; t N.select "D5" [ tv 2 ] ])
      ~input:"D2" ~cond:refs_input;
    push "select_push_mat"
      ~lhs:(p N.select "D4" [ p N.mat "D3" [ v 1 ] ])
      ~rhs:(t N.mat "D6" [ t N.select "D5" [ tv 1 ] ])
      ~input:"D1" ~cond:refs_input;
    push "select_push_unnest"
      ~lhs:(p N.select "D4" [ p N.unnest "D3" [ v 1 ] ])
      ~rhs:(t N.unnest "D6" [ t N.select "D5" [ tv 1 ] ])
      ~input:"D1"
      ~cond:(fun env ~input:_ ~d3 ~pred ->
        (not (Predicate.equal pred Predicate.True))
        && not (refs_any pred (unnest_attr env.(d3))));
    Rule.trans_rule ~name:"select_into_ret"
      ~lhs:(p N.select "D4" [ p N.ret "D3" [ v 1 ] ])
      ~rhs:(t N.ret "D5" [ tv 1 ])
      (fun slot ->
        let d3 = slot "D3" and d4 = slot "D4" and d5 = slot "D5" in
        ( always,
          fun env ->
            let r =
              set_spred env.(d3) (F.canonical_and (spred env.(d3)) (spred env.(d4)))
            in
            env.(d5) <- set_card r (card env.(d4)) ));
    pull "mat_pull_join_left" (p N.join "D4" [ p N.mat "D3" [ v 1 ]; v 2 ]);
    pull "mat_pull_join_right" (p N.join "D4" [ v 1; p N.mat "D3" [ v 2 ] ]);
    mat_push_join "mat_push_join_left"
      ~rhs:(t N.join "D6" [ t N.mat "D5" [ tv 1 ]; tv 2 ])
      ~input:"D1" ~other:"D2"
      ~attrs_of:(fun pushed other -> F.union_attrs pushed other);
    mat_push_join "mat_push_join_right"
      ~rhs:(t N.join "D6" [ tv 1; t N.mat "D5" [ tv 2 ] ])
      ~input:"D2" ~other:"D1"
      ~attrs_of:(fun pushed other -> F.union_attrs other pushed);
    Rule.trans_rule ~name:"mat_commute"
      ~lhs:(p N.mat "D4" [ p N.mat "D3" [ v 1 ] ])
      ~rhs:(t N.mat "D6" [ t N.mat "D5" [ tv 1 ] ])
      (fun slot ->
        let d1 = slot "D1" and d3 = slot "D3" and d4 = slot "D4" in
        let d5 = slot "D5" and d6 = slot "D6" in
        ( (fun env -> subset (mat_attr env.(d4)) (attrs env.(d1))),
          fun env ->
            env.(d5) <- mat_pushed env ~input:d1 ~d4;
            env.(d6) <- set_mat env.(d4) (mat_attr env.(d3)) ));
    Rule.trans_rule ~name:"unnest_join_swap"
      ~lhs:(p N.unnest "D4" [ p N.join "D3" [ v 1; v 2 ] ])
      ~rhs:(t N.join "D6" [ t N.unnest "D5" [ tv 1 ]; tv 2 ])
      (fun slot ->
        let d1 = slot "D1" and d3 = slot "D3" and d4 = slot "D4" in
        let d5 = slot "D5" and d6 = slot "D6" in
        ( (fun env ->
            let ua = unnest_attr env.(d4) in
            subset ua (attrs env.(d1)) && not (refs_any (jpred env.(d3)) ua)),
          fun env ->
            let ua = unnest_attr env.(d4) in
            let u = set_unnest Descriptor.empty ua in
            let u = set_attrs u (attrs env.(d1)) in
            let u = set_card u (card env.(d1) * F.unnest_fanout catalog ua) in
            env.(d5) <- set_size u (size env.(d1));
            env.(d6) <- set_card env.(d3) (card env.(d4)) ));
  ]

(* ------------------------------------------------------------------ *)
(* impl_rules                                                           *)
(* ------------------------------------------------------------------ *)

let merged op_arg req = Descriptor.merge ~base:op_arg ~overrides:req
let no_reqs n = Array.make n Descriptor.empty

let order_req req =
  match order req with
  | Order.Any -> Descriptor.empty
  | o -> set_order Descriptor.empty o

let impl catalog : Rule.impl_rule list =
  [
    {
      Rule.ir_name = "ret_file_scan";
      ir_op = N.ret;
      ir_alg = N.file_scan;
      ir_arity = 1;
      ir_cond =
        (fun ~op_arg ~req ~inputs:_ -> Order.is_any (order (merged op_arg req)));
      ir_input_reqs = (fun ~op_arg:_ ~req:_ ~inputs:_ -> no_reqs 1);
      ir_finalize =
        (fun ~op_arg ~req ~inputs ->
          let d3 = merged op_arg req in
          set_cost d3
            (Cost_model.file_scan ~card:(card inputs.(0))
               ~tuple_size:(size inputs.(0))));
    };
    {
      Rule.ir_name = "ret_index_scan";
      ir_op = N.ret;
      ir_alg = N.index_scan;
      ir_arity = 1;
      ir_cond =
        (fun ~op_arg ~req ~inputs ->
          let d2 = merged op_arg req in
          let ixs = indexes inputs.(0) in
          F.indexed_selection (spred d2) ixs
          && Order.satisfies ~required:(order d2)
               ~actual:(F.index_order (spred d2) ixs));
      ir_input_reqs = (fun ~op_arg:_ ~req:_ ~inputs:_ -> no_reqs 1);
      ir_finalize =
        (fun ~op_arg ~req ~inputs ->
          let d2 = merged op_arg req in
          let ixs = indexes inputs.(0) in
          let d3 = set_order d2 (F.index_order (spred d2) ixs) in
          set_cost d3
            (Cost_model.index_scan ~card:(card inputs.(0))
               ~tuple_size:(size inputs.(0))
               ~selectivity:(F.indexed_selectivity catalog (spred d2) ixs)));
    };
    {
      Rule.ir_name = "join_hash";
      ir_op = N.join;
      ir_alg = N.hash_join;
      ir_arity = 2;
      ir_cond =
        (fun ~op_arg ~req ~inputs:_ ->
          let d3 = merged op_arg req in
          Predicate.is_equijoin (jpred d3) && Order.is_any (order d3));
      ir_input_reqs = (fun ~op_arg:_ ~req:_ ~inputs:_ -> no_reqs 2);
      ir_finalize =
        (fun ~op_arg ~req ~inputs ->
          let d4 = merged op_arg req in
          set_cost d4
            (Cost_model.hash_join
               ~left_cost:(dcost inputs.(0))
               ~right_cost:(dcost inputs.(1))
               ~left_card:(card inputs.(0))
               ~right_card:(card inputs.(1))));
    };
    {
      Rule.ir_name = "join_pointer";
      ir_op = N.join;
      ir_alg = N.pointer_join;
      ir_arity = 2;
      ir_cond =
        (fun ~op_arg ~req ~inputs:_ ->
          F.is_ref_join catalog (jpred (merged op_arg req)));
      ir_input_reqs =
        (fun ~op_arg ~req ~inputs:_ -> [| order_req (merged op_arg req); Descriptor.empty |]);
      ir_finalize =
        (fun ~op_arg ~req ~inputs ->
          let d5 = merged op_arg req in
          let outer = inputs.(0) in
          let d5 =
            set_cost d5
              (Cost_model.pointer_join ~outer_cost:(dcost outer)
                 ~inner_cost:(dcost inputs.(1))
                 ~outer_card:(card outer))
          in
          set_order d5 (order outer));
    };
    (let preserving name op alg cost_fn =
       {
         Rule.ir_name = name;
         ir_op = op;
         ir_alg = alg;
         ir_arity = 1;
         ir_cond = (fun ~op_arg:_ ~req:_ ~inputs:_ -> true);
         ir_input_reqs =
           (fun ~op_arg ~req ~inputs:_ -> [| order_req (merged op_arg req) |]);
         ir_finalize =
           (fun ~op_arg ~req ~inputs ->
             let d4 = merged op_arg req in
             let i0 = inputs.(0) in
             let d4 = set_cost d4 (cost_fn ~input:i0 ~out:d4) in
             set_order d4 (order i0));
       }
     in
     preserving "select_filter" N.select N.filter (fun ~input ~out:_ ->
         Cost_model.filter ~input_cost:(dcost input) ~input_card:(card input)));
    {
      Rule.ir_name = "project_apply";
      ir_op = N.project;
      ir_alg = N.project_alg;
      ir_arity = 1;
      ir_cond = (fun ~op_arg:_ ~req:_ ~inputs:_ -> true);
      ir_input_reqs =
        (fun ~op_arg ~req ~inputs:_ -> [| order_req (merged op_arg req) |]);
      ir_finalize =
        (fun ~op_arg ~req ~inputs ->
          let d4 = merged op_arg req in
          let i0 = inputs.(0) in
          let d4 =
            set_cost d4
              (Cost_model.project ~input_cost:(dcost i0) ~input_card:(card i0))
          in
          set_order d4 (order i0));
    };
    {
      Rule.ir_name = "mat_pointer";
      ir_op = N.mat;
      ir_alg = N.mat_deref;
      ir_arity = 1;
      ir_cond = (fun ~op_arg:_ ~req:_ ~inputs:_ -> true);
      ir_input_reqs =
        (fun ~op_arg ~req ~inputs:_ -> [| order_req (merged op_arg req) |]);
      ir_finalize =
        (fun ~op_arg ~req ~inputs ->
          let d4 = merged op_arg req in
          let i0 = inputs.(0) in
          let d4 =
            set_cost d4
              (Cost_model.mat_ordered ~input_cost:(dcost i0) ~card:(card i0))
          in
          set_order d4 (order i0));
    };
    {
      Rule.ir_name = "mat_batch";
      ir_op = N.mat;
      ir_alg = N.mat_deref;
      ir_arity = 1;
      ir_cond =
        (fun ~op_arg ~req ~inputs:_ -> Order.is_any (order (merged op_arg req)));
      ir_input_reqs = (fun ~op_arg:_ ~req:_ ~inputs:_ -> no_reqs 1);
      ir_finalize =
        (fun ~op_arg ~req ~inputs ->
          let d4 = merged op_arg req in
          let i0 = inputs.(0) in
          set_cost d4
            (Cost_model.mat_unordered ~input_cost:(dcost i0) ~card:(card i0)));
    };
    {
      Rule.ir_name = "unnest_scan";
      ir_op = N.unnest;
      ir_alg = N.unnest_scan;
      ir_arity = 1;
      ir_cond = (fun ~op_arg:_ ~req:_ ~inputs:_ -> true);
      ir_input_reqs =
        (fun ~op_arg ~req ~inputs:_ -> [| order_req (merged op_arg req) |]);
      ir_finalize =
        (fun ~op_arg ~req ~inputs ->
          let d4 = merged op_arg req in
          let i0 = inputs.(0) in
          let d4 =
            set_cost d4
              (Cost_model.unnest ~input_cost:(dcost i0) ~output_card:(card d4))
          in
          set_order d4 (order i0));
    };
  ]

(* ------------------------------------------------------------------ *)
(* enforcer                                                             *)
(* ------------------------------------------------------------------ *)

let merge_sort_enforcer : Rule.enforcer =
  {
    Rule.en_name = "sort_merge_sort";
    en_alg = N.merge_sort;
    en_applies = (fun ~req -> not (Order.is_any (order req)));
    en_relaxed = (fun ~req -> Descriptor.without req [ N.p_tuple_order ]);
    en_finalize =
      (fun ~req ~input ->
        let d3 = Descriptor.merge ~base:input ~overrides:req in
        set_cost d3
          (Cost_model.merge_sort ~input_cost:(dcost input) ~card:(card d3)));
  }

let ruleset catalog =
  Rule.make_ruleset ~trans:(trans catalog) ~impl:(impl catalog)
    ~enforcers:[ merge_sort_enforcer ]
    ~physical:[ N.p_tuple_order ]
    "open-oodb-volcano"

let rec prepare_query expr =
  match expr with
  | Expr.Node (Expr.Operator, name, d, [ child ]) when String.equal name N.sort
    ->
    let sub, req = prepare_query child in
    let props = Descriptor.restrict d [ N.p_tuple_order ] in
    (sub, Descriptor.merge ~base:req ~overrides:props)
  | e -> (e, Descriptor.empty)
