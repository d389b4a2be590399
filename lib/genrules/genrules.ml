module N = Prairie_algebra.Names
module B = Prairie_algebra.Build
open B

type binary_op = {
  bin_name : string;
  bin_pred : string;
  bin_commutative : bool;
  bin_associative : bool;
}

type filter_op = {
  flt_name : string;
  flt_pred : string;
  flt_pushes_into : (string * [ `Left | `Right | `Both ]) list;
  flt_absorbs_into : string list;
  flt_splits : bool;
}

type enforcer_intro = {
  enf_operator : string;
  enf_property : string;
  enf_over : (string * int) list;
}

type spec = {
  binaries : binary_op list;
  filters : filter_op list;
  enforcers : enforcer_intro list;
}

let true_pred =
  Prairie.Action.Const (Prairie_value.Value.Pred Prairie_value.Predicate.True)

(* clearing a property (descriptor normalization removes Null bindings)
   works for any enforced property type, where DONT_CARE is order-specific *)
let cleared = Prairie.Action.Const Prairie_value.Value.Null

(* ------------------------------------------------------------------ *)
(* binary operators                                                     *)
(* ------------------------------------------------------------------ *)

let commute_rule (b : binary_op) =
  trule
    ~name:("gen_commute_" ^ b.bin_name)
    ~lhs:(p b.bin_name "D3" [ v 1; v 2 ])
    ~rhs:(t b.bin_name "D4" [ tv 2; tv 1 ])
    ~post_test:[ copy "D4" "D3" ]
    ()

(* the two associativity directions share their statistics maintenance *)
let assoc_rule (b : binary_op) ~left =
  let name =
    "gen_assoc_" ^ b.bin_name ^ if left then "_left" else "_right"
  in
  let lhs, rhs, inner_a, inner_b, inner_card_a, inner_card_b =
    if left then
      ( p b.bin_name "D5" [ p b.bin_name "D4" [ v 1; v 2 ]; v 3 ],
        t b.bin_name "D7" [ tv 1; t b.bin_name "D6" [ tv 2; tv 3 ] ],
        "D2", "D3", "D2", "D3" )
    else
      ( p b.bin_name "D5" [ v 1; p b.bin_name "D4" [ v 2; v 3 ] ],
        t b.bin_name "D7" [ t b.bin_name "D6" [ tv 1; tv 2 ]; tv 3 ],
        "D1", "D2", "D1", "D2" )
  in
  trule ~name ~lhs ~rhs
    ~pre_test:
      [
        set "D6" N.p_attributes
          (c "union_attrs" [ inner_a $. N.p_attributes; inner_b $. N.p_attributes ]);
      ]
    ~test:
      (not_ (c "pred_is_true" [ "D5" $. b.bin_pred ])
      &&! c "pred_refs_only" [ "D5" $. b.bin_pred; "D6" $. N.p_attributes ])
    ~post_test:
      [
        set "D6" b.bin_pred ("D5" $. b.bin_pred);
        set "D6" N.p_num_records
          (c "join_cardinality"
             [
               inner_card_a $. N.p_num_records;
               inner_card_b $. N.p_num_records;
               "D5" $. b.bin_pred;
             ]);
        set "D6" N.p_tuple_size
          ((inner_a $. N.p_tuple_size) +! (inner_b $. N.p_tuple_size));
        copy "D7" "D5";
        set "D7" b.bin_pred ("D4" $. b.bin_pred);
      ]
    ()

(* ------------------------------------------------------------------ *)
(* filter (unary predicate) operators                                   *)
(* ------------------------------------------------------------------ *)

let push_rule (f : filter_op) bin ~left =
  let side = if left then "left" else "right" in
  let name = Printf.sprintf "gen_push_%s_%s_%s" f.flt_name bin side in
  let rhs =
    if left then t bin "D6" [ t f.flt_name "D5" [ tv 1 ]; tv 2 ]
    else t bin "D6" [ tv 1; t f.flt_name "D5" [ tv 2 ] ]
  in
  let input = if left then "D1" else "D2" in
  trule ~name
    ~lhs:(p f.flt_name "D4" [ p bin "D3" [ v 1; v 2 ] ])
    ~rhs
    ~test:
      (not_ (c "pred_is_true" [ "D4" $. f.flt_pred ])
      &&! c "pred_refs_only" [ "D4" $. f.flt_pred; input $. N.p_attributes ])
    ~post_test:
      [
        set "D5" f.flt_pred ("D4" $. f.flt_pred);
        set "D5" N.p_attributes (input $. N.p_attributes);
        set "D5" N.p_num_records
          (c "select_cardinality" [ input $. N.p_num_records; "D4" $. f.flt_pred ]);
        set "D5" N.p_tuple_size (input $. N.p_tuple_size);
        copy "D6" "D3";
        set "D6" N.p_num_records ("D4" $. N.p_num_records);
      ]
    ()

let absorb_rule (f : filter_op) target =
  trule
    ~name:(Printf.sprintf "gen_absorb_%s_%s" f.flt_name target)
    ~lhs:(p f.flt_name "D4" [ p target "D3" [ v 1 ] ])
    ~rhs:(t target "D5" [ tv 1 ])
    ~post_test:
      [
        copy "D5" "D3";
        set "D5" f.flt_pred
          (c "and_pred" [ "D3" $. f.flt_pred; "D4" $. f.flt_pred ]);
        set "D5" N.p_num_records ("D4" $. N.p_num_records);
      ]
    ()

let split_rules (f : filter_op) =
  [
    trule
      ~name:("gen_split_" ^ f.flt_name)
      ~lhs:(p f.flt_name "D2" [ v 1 ])
      ~rhs:(t f.flt_name "D4" [ t f.flt_name "D3" [ tv 1 ] ])
      ~test:(c "has_conjuncts" [ "D2" $. f.flt_pred ])
      ~post_test:
        [
          set "D3" f.flt_pred (c "rest_conjuncts" [ "D2" $. f.flt_pred ]);
          set "D3" N.p_attributes ("D1" $. N.p_attributes);
          set "D3" N.p_num_records
            (c "select_cardinality" [ "D1" $. N.p_num_records; "D3" $. f.flt_pred ]);
          set "D3" N.p_tuple_size ("D1" $. N.p_tuple_size);
          copy "D4" "D2";
          set "D4" f.flt_pred (c "first_conjunct" [ "D2" $. f.flt_pred ]);
        ]
      ();
    trule
      ~name:("gen_merge_" ^ f.flt_name)
      ~lhs:(p f.flt_name "D4" [ p f.flt_name "D3" [ v 1 ] ])
      ~rhs:(t f.flt_name "D5" [ tv 1 ])
      ~post_test:
        [
          copy "D5" "D4";
          set "D5" f.flt_pred
            (c "and_pred" [ "D4" $. f.flt_pred; "D3" $. f.flt_pred ]);
        ]
      ();
    trule
      ~name:("gen_commute_" ^ f.flt_name)
      ~lhs:(p f.flt_name "D4" [ p f.flt_name "D3" [ v 1 ] ])
      ~rhs:(t f.flt_name "D6" [ t f.flt_name "D5" [ tv 1 ] ])
      ~post_test:
        [
          copy "D5" "D3";
          set "D5" f.flt_pred ("D4" $. f.flt_pred);
          set "D5" N.p_num_records
            (c "select_cardinality" [ "D1" $. N.p_num_records; "D4" $. f.flt_pred ]);
          copy "D6" "D4";
          set "D6" f.flt_pred ("D3" $. f.flt_pred);
        ]
      ();
  ]

(* ------------------------------------------------------------------ *)
(* enforcer introduction (footnote 7)                                   *)
(* ------------------------------------------------------------------ *)

let enforcer_rules (e : enforcer_intro) =
  List.map
    (fun (op, arity) ->
      let name = Printf.sprintf "gen_intro_%s_%s" e.enf_operator op in
      match arity with
      | 1 ->
        trule ~name
          ~lhs:(p op "D2" [ v 1 ])
          ~rhs:(t e.enf_operator "D4" [ t op "D3" [ tv 1 ] ])
          ~test:(not_ (c "is_null" [ "D2" $. e.enf_property ]))
          ~post_test:
            [
              copy "D4" "D2";
              set "D4" N.p_selection_predicate true_pred;
              set "D4" N.p_join_predicate true_pred;
              copy "D3" "D2";
              set "D3" e.enf_property cleared;
            ]
          ()
      | 2 ->
        trule ~name
          ~lhs:(p op "D3" [ v 1; v 2 ])
          ~rhs:(t e.enf_operator "D5" [ t op "D4" [ tv 1; tv 2 ] ])
          ~test:(not_ (c "is_null" [ "D3" $. e.enf_property ]))
          ~post_test:
            [
              copy "D5" "D3";
              set "D5" N.p_selection_predicate true_pred;
              set "D5" N.p_join_predicate true_pred;
              copy "D4" "D3";
              set "D4" e.enf_property cleared;
            ]
          ()
      | n ->
        invalid_arg
          (Printf.sprintf "Genrules: enforcer introduction over arity-%d \
                           operator %s is not supported" n op))
    e.enf_over

let trules spec =
  List.concat_map
    (fun b ->
      (if b.bin_commutative then [ commute_rule b ] else [])
      @
      if b.bin_associative then
        [ assoc_rule b ~left:true; assoc_rule b ~left:false ]
      else [])
    spec.binaries
  @ List.concat_map
      (fun f ->
        (if f.flt_splits then split_rules f else [])
        @ List.concat_map
            (fun (bin, sides) ->
              match sides with
              | `Left -> [ push_rule f bin ~left:true ]
              | `Right -> [ push_rule f bin ~left:false ]
              | `Both -> [ push_rule f bin ~left:true; push_rule f bin ~left:false ])
            f.flt_pushes_into
        @ List.map (absorb_rule f) f.flt_absorbs_into)
      spec.filters
  @ List.concat_map enforcer_rules spec.enforcers

let ruleset ?(name = "generated") ~helpers ~irules spec =
  Prairie.Ruleset.make ~properties:Prairie_algebra.Props.schema
    ~trules:(trules spec) ~irules ~helpers name

let relational_spec =
  {
    binaries =
      [
        {
          bin_name = N.join;
          bin_pred = N.p_join_predicate;
          bin_commutative = true;
          bin_associative = true;
        };
      ];
    filters = [];
    enforcers =
      [
        {
          enf_operator = N.sort;
          enf_property = N.p_tuple_order;
          enf_over = [ (N.ret, 1); (N.join, 2) ];
        };
      ];
  }

let distributed_spec =
  {
    relational_spec with
    enforcers =
      [
        {
          enf_operator = N.ship;
          enf_property = N.p_site;
          enf_over = [ (N.ret, 1); (N.join, 2) ];
        };
      ];
  }

let oodb_select_join_spec =
  {
    binaries =
      [
        {
          bin_name = N.join;
          bin_pred = N.p_join_predicate;
          bin_commutative = true;
          bin_associative = true;
        };
      ];
    filters =
      [
        {
          flt_name = N.select;
          flt_pred = N.p_selection_predicate;
          flt_pushes_into = [ (N.join, `Both) ];
          flt_absorbs_into = [ N.ret ];
          flt_splits = true;
        };
      ];
    enforcers =
      [
        {
          enf_operator = N.sort;
          enf_property = N.p_tuple_order;
          enf_over = [ (N.ret, 1); (N.select, 1); (N.join, 2) ];
        };
      ];
  }
