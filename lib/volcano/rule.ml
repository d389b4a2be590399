module Descriptor = Prairie.Descriptor
module Pattern = Prairie.Pattern
module Value = Prairie_value.Value
module Order = Prairie_value.Order

type env = Prairie.Compiled.env

type match_op = { op : string; desc : int; arity : int; subs : lhs_slots list }

and lhs_slots =
  | Match_var of { stream : int; desc : int }
  | Match_op of match_op

type rhs_slots =
  | Build_var of int
  | Build_op of string * int * rhs_slots list

type trans_rule = {
  tr_name : string;
  tr_slots : Prairie.Compiled.slots;
  tr_streams : int;
  tr_match : match_op;
  tr_build : rhs_slots;
  tr_cond : env -> bool;
  tr_appl : env -> unit;
}

let trans_rule ?(vars = []) ~name ~lhs ~rhs stage =
  (* one pass over LHS, RHS and the actions' names numbers every
     descriptor variable; stream variables get their own numbering *)
  let rec lhs_names (ds, ss) = function
    | Pattern.Pvar i -> (Pattern.stream_desc_name i :: ds, i :: ss)
    | Pattern.Pop (_, d, subs) -> List.fold_left lhs_names (d :: ds, ss) subs
  in
  let rec rhs_names acc = function
    | Pattern.Tvar (_, None) -> acc
    | Pattern.Tvar (_, Some d) -> d :: acc
    | Pattern.Tnode (_, d, subs) -> List.fold_left rhs_names (d :: acc) subs
  in
  let ds, ss = lhs_names ([], []) lhs in
  let slots = Prairie.Compiled.slots (List.rev_append (rhs_names ds rhs) vars) in
  let slot = Prairie.Compiled.slot slots in
  let streams = Array.of_list (List.sort_uniq Int.compare ss) in
  let stream_slot i =
    let rec find k =
      if k = Array.length streams then
        invalid_arg
          (Printf.sprintf "trans rule %s: RHS uses unbound stream variable ?%d"
             name i)
      else if streams.(k) = i then k
      else find (k + 1)
    in
    find 0
  in
  let rec match_op op d subs =
    { op; desc = slot d; arity = List.length subs; subs = List.map lhs_slots subs }
  and lhs_slots = function
    | Pattern.Pvar i ->
      Match_var { stream = stream_slot i; desc = slot (Pattern.stream_desc_name i) }
    | Pattern.Pop (op, d, subs) -> Match_op (match_op op d subs)
  in
  let tr_match =
    match lhs with
    | Pattern.Pop (op, d, subs) -> match_op op d subs
    | Pattern.Pvar i ->
      invalid_arg
        (Printf.sprintf "trans rule %s: LHS is the bare stream variable ?%d" name i)
  in
  let rec rhs_slots = function
    | Pattern.Tvar (i, _) -> Build_var (stream_slot i)
    | Pattern.Tnode (op, d, subs) -> Build_op (op, slot d, List.map rhs_slots subs)
  in
  let tr_cond, tr_appl = stage slot in
  {
    tr_name = name;
    tr_slots = slots;
    tr_streams = Array.length streams;
    tr_match;
    tr_build = rhs_slots rhs;
    tr_cond;
    tr_appl;
  }

type impl_rule = {
  ir_name : string;
  ir_op : string;
  ir_alg : string;
  ir_arity : int;
  ir_cond :
    op_arg:Descriptor.t ->
    req:Descriptor.t ->
    inputs:Descriptor.t array ->
    bool;
  ir_input_reqs :
    op_arg:Descriptor.t ->
    req:Descriptor.t ->
    inputs:Descriptor.t array ->
    Descriptor.t array;
  ir_finalize :
    op_arg:Descriptor.t ->
    req:Descriptor.t ->
    inputs:Descriptor.t array ->
    Descriptor.t;
}

type enforcer = {
  en_name : string;
  en_alg : string;
  en_applies : req:Descriptor.t -> bool;
  en_relaxed : req:Descriptor.t -> Descriptor.t;
  en_finalize : req:Descriptor.t -> input:Descriptor.t -> Descriptor.t;
}

type ruleset = {
  rs_name : string;
  rs_trans : trans_rule list;
  rs_impl : impl_rule list;
  rs_enforcers : enforcer list;
  rs_physical : string list;
  rs_physical_set : Descriptor.String_set.t;
      (** [rs_physical] as a set, built once at construction *)
  rs_impl_index : (string, impl_rule list) Hashtbl.t;
      (** impl rules grouped by operator, in [rs_impl] order *)
  rs_match_index : (string, (int * trans_rule) list) Hashtbl.t;
      (** trans rules by LHS root operator, paired with their [rs_trans]
          position (the memo's tried-table rule id).  Read through
          {!trans_rules_for}. *)
}

let default_satisfies ~required ~actual =
  List.for_all
    (fun (p, req_v) ->
      match p with
      | "tuple_order" ->
        Order.satisfies ~required:(Value.to_order req_v)
          ~actual:(Value.to_order (Descriptor.get actual p))
      | _ -> Value.equal req_v (Descriptor.get actual p))
    (Descriptor.to_list required)

(* Group [xs] by [key]; grouping over the reversed list keeps each bucket
   in [xs] order. *)
let group_by key xs =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun x ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt tbl (key x)) in
      Hashtbl.replace tbl (key x) (x :: prev))
    (List.rev xs);
  tbl

let make_ruleset ?(trans = []) ?(impl = []) ?(enforcers = [])
    ?(physical = [ "tuple_order" ]) name =
  {
    rs_name = name;
    rs_trans = trans;
    rs_impl = impl;
    rs_enforcers = enforcers;
    rs_physical = physical;
    rs_physical_set = Descriptor.String_set.of_list physical;
    rs_impl_index = group_by (fun r -> r.ir_op) impl;
    (* each trans rule with its [trans] position: the rule id of the
       memo's tried table *)
    rs_match_index =
      group_by
        (fun (_, tr) -> tr.tr_match.op)
        (List.mapi (fun i tr -> (i, tr)) trans);
  }

let impl_rules_for rs op =
  Option.value ~default:[] (Hashtbl.find_opt rs.rs_impl_index op)

let trans_rules_for rs op =
  Option.value ~default:[] (Hashtbl.find_opt rs.rs_match_index op)

let restrict_physical rs d = Descriptor.restrict_set d rs.rs_physical_set
