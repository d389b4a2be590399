module Descriptor = Prairie.Descriptor

type result = {
  plan : Plan.t option;
  groups_explored : int;
  requirements_considered : int;
  plans_costed : int;
}

module Key = struct
  type t = Memo.gid * Descriptor.t

  let equal (g1, d1) (g2, d2) = g1 = g2 && Descriptor.equal d1 d2
  let hash (g, d) = Hashtbl.hash (g, Descriptor.hash d)
end

module Tbl = Hashtbl.Make (Key)

(* Groups in dependency order: every group appears after the groups its
   members read as inputs. *)
let topological_order memo =
  let visited = Hashtbl.create 64 in
  let order = ref [] in
  let rec visit g =
    let g = Memo.canonical memo g in
    if not (Hashtbl.mem visited g) then begin
      Hashtbl.replace visited g ();
      List.iter
        (fun (le : Memo.lexpr) -> Array.iter visit le.Memo.inputs)
        (Memo.lexprs memo g);
      order := g :: !order
    end
  in
  List.iter visit (Memo.groups memo);
  List.rev !order

let optimize ?(required = Descriptor.empty) rules expr =
  let ctx = Search.create rules in
  let memo = Search.memo ctx in
  let g0 = Memo.insert_expr memo expr in
  let required = Search.restrict_req ctx required in
  (* 1. saturate: explore until no group or expression appears *)
  let rec saturate () =
    let before = (Memo.group_count memo, Memo.lexpr_count memo) in
    List.iter (fun g -> Search.explore_group ctx g) (Memo.groups memo);
    if (Memo.group_count memo, Memo.lexpr_count memo) <> before then saturate ()
  in
  saturate ();
  let g0 = Memo.canonical memo g0 in
  (* 2. interesting requirements per group (worklist from the root) *)
  let interesting : unit Tbl.t = Tbl.create 64 in
  let queue = Queue.create () in
  let add g req =
    let g = Memo.canonical memo g in
    let req = Search.restrict_req ctx req in
    if not (Tbl.mem interesting (g, req)) then begin
      Tbl.replace interesting (g, req) ();
      Queue.add (g, req) queue
    end
  in
  (* every group needs its unconstrained plan as the DP base case *)
  List.iter (fun g -> add g Descriptor.empty) (Memo.groups memo);
  add g0 required;
  while not (Queue.is_empty queue) do
    let g, req = Queue.pop queue in
    List.iter
      (fun (le : Memo.lexpr) ->
        match le.Memo.node with
        | Memo.L_file _ -> ()
        | Memo.L_op op ->
          let input_descs = Array.map (Memo.group_desc memo) le.Memo.inputs in
          List.iter
            (fun (ir : Rule.impl_rule) ->
              if
                ir.Rule.ir_arity = Array.length le.Memo.inputs
                && ir.Rule.ir_cond ~op_arg:le.Memo.arg ~req ~inputs:input_descs
              then
                let reqs =
                  ir.Rule.ir_input_reqs ~op_arg:le.Memo.arg ~req
                    ~inputs:input_descs
                in
                Array.iteri (fun i r -> add le.Memo.inputs.(i) r) reqs)
            (Rule.impl_rules_for rules op))
      (Memo.lexprs memo g);
    List.iter
      (fun (en : Rule.enforcer) ->
        if en.Rule.en_applies ~req then add g (en.Rule.en_relaxed ~req))
      rules.Rule.rs_enforcers
  done;
  (* 3. dynamic programming in dependency order; within a group, smaller
     requirement vectors first so enforcers find their relaxed plans *)
  let table : Plan.t option Tbl.t = Tbl.create 64 in
  let plans_costed = ref 0 in
  let reqs_of g =
    Tbl.fold (fun (g', req) () acc -> if g' = g then req :: acc else acc)
      interesting []
    |> List.sort (fun a b ->
           compare
             (List.length (Descriptor.to_list a))
             (List.length (Descriptor.to_list b)))
  in
  let groups = topological_order memo in
  List.iter
    (fun g ->
      List.iter
        (fun req ->
          let best = ref None in
          let consider plan cost =
            if Rule.default_satisfies ~required:req ~actual:(Plan.descriptor plan)
            then
              match !best with
              | Some (_, c) when c <= cost -> ()
              | _ -> best := Some (plan, cost)
          in
          let members = Memo.lexprs memo g in
          List.iter
            (fun (le : Memo.lexpr) ->
              match le.Memo.node with
              | Memo.L_file name ->
                consider
                  (Plan.Leaf (name, le.Memo.arg))
                  (Descriptor.cost le.Memo.arg)
              | Memo.L_op op ->
                let input_descs =
                  Array.map (Memo.group_desc memo) le.Memo.inputs
                in
                List.iter
                  (fun (ir : Rule.impl_rule) ->
                    if
                      ir.Rule.ir_arity = Array.length le.Memo.inputs
                      && ir.Rule.ir_cond ~op_arg:le.Memo.arg ~req
                           ~inputs:input_descs
                    then begin
                      let ireqs =
                        ir.Rule.ir_input_reqs ~op_arg:le.Memo.arg ~req
                          ~inputs:input_descs
                      in
                      let inputs =
                        Array.mapi
                          (fun i r ->
                            match
                              Tbl.find_opt table
                                ( Memo.canonical memo le.Memo.inputs.(i),
                                  Search.restrict_req ctx r )
                            with
                            | Some (Some p) -> Some p
                            | Some None | None -> None)
                          ireqs
                      in
                      if Array.for_all Option.is_some inputs then begin
                        let descs =
                          Array.map
                            (fun p -> Plan.descriptor (Option.get p))
                            inputs
                        in
                        let desc =
                          ir.Rule.ir_finalize ~op_arg:le.Memo.arg ~req
                            ~inputs:descs
                        in
                        incr plans_costed;
                        consider
                          (Plan.Alg
                             ( ir.Rule.ir_alg,
                               desc,
                               Array.to_list (Array.map Option.get inputs) ))
                          (Descriptor.cost desc)
                      end
                    end)
                  (Rule.impl_rules_for rules op))
            members;
          let files_only =
            List.for_all
              (fun le ->
                match le.Memo.node with
                | Memo.L_file _ -> true
                | Memo.L_op _ -> false)
              members
          in
          if not files_only then
            List.iter
              (fun (en : Rule.enforcer) ->
                if en.Rule.en_applies ~req then begin
                  let relaxed =
                    Search.restrict_req ctx (en.Rule.en_relaxed ~req)
                  in
                  if not (Descriptor.equal relaxed req) then
                    match Tbl.find_opt table (g, relaxed) with
                    | Some (Some sub) ->
                      let desc =
                        en.Rule.en_finalize ~req ~input:(Plan.descriptor sub)
                      in
                      incr plans_costed;
                      consider
                        (Plan.Alg (en.Rule.en_alg, desc, [ sub ]))
                        (Descriptor.cost desc)
                    | Some None | None -> ()
                end)
              rules.Rule.rs_enforcers;
          Tbl.replace table (g, req) (Option.map fst !best))
        (reqs_of g))
    groups;
  {
    plan =
      (match Tbl.find_opt table (g0, required) with
      | Some p -> p
      | None -> None);
    groups_explored = Memo.group_count memo;
    requirements_considered = Tbl.length interesting;
    plans_costed = !plans_costed;
  }
