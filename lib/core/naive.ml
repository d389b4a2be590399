type result = {
  plan : Expr.t;
  cost : float;
}

module Expr_set = Set.Make (Expr)

let replace_nth xs i x' = List.mapi (fun j x -> if j = i then x' else x) xs

(* All one-step T-rule rewrites of [expr], at the root or in any subtree. *)
let rewrites (ruleset : Ruleset.t) expr =
  let rec go expr =
    let at_root =
      List.filter_map
        (fun r -> Eval.apply_trule ruleset.helpers r expr)
        ruleset.trules
    in
    let in_subtrees =
      match expr with
      | Expr.Stored _ -> []
      | Expr.Node (kind, name, desc, inputs) ->
        List.concat
          (List.mapi
             (fun i x ->
               List.map
                 (fun x' -> Expr.Node (kind, name, desc, replace_nth inputs i x'))
                 (go x))
             inputs)
    in
    at_root @ in_subtrees
  in
  go expr

let logical_forms ?(max_forms = 20000) ruleset expr =
  let seen = ref (Expr_set.singleton expr) in
  let queue = Queue.create () in
  Queue.add expr queue;
  while not (Queue.is_empty queue) do
    let e = Queue.pop queue in
    List.iter
      (fun e' ->
        if Expr_set.cardinal !seen < max_forms && not (Expr_set.mem e' !seen)
        then begin
          seen := Expr_set.add e' !seen;
          Queue.add e' queue
        end)
      (rewrites ruleset e)
  done;
  Expr_set.elements !seen

let rec cartesian = function
  | [] -> [ [] ]
  | choices :: rest ->
    let tails = cartesian rest in
    List.concat_map (fun c -> List.map (fun t -> c :: t) tails) choices

module Expr_tbl = Hashtbl.Make (struct
  type t = Expr.t

  let equal = Expr.equal
  let hash = Expr.hash
end)

type ctx = {
  ruleset : Ruleset.t;
  max_forms : int option;
  memo : Expr.t list Expr_tbl.t;
  mutable in_progress : Expr.t list;
}

(* One plan per distinct root descriptor, the first of each.  A parent's
   post-opt statements read only its inputs' descriptors (the achieved
   properties and cost), so plans that agree on the root descriptor are
   interchangeable under every parent: dropping all but one changes no
   parent's descriptor and no cost.  Without this, every input's plans
   multiply in the cartesian products below. *)
let distinct_roots plans =
  let seen = Descriptor.Tbl.create 16 in
  List.filter
    (fun plan ->
      let d = Expr.descriptor plan in
      if Descriptor.Tbl.mem seen d then false
      else begin
        Descriptor.Tbl.add seen d ();
        true
      end)
    plans

(* The access plans for [expr], whose root descriptor already carries the
   required properties, one per distinct root descriptor: close under
   T-rules, then implement each logical form.  The closure re-runs inside
   the recursion because requirements pushed down by pre-opt statements
   (e.g. an order requirement on a nested-loops outer input) can enable
   T-rules -- such as the sort-introduction rules -- that were
   inapplicable before.

   A rule cycle (Null passing a requirement back down to an expression that
   is already being optimized, re-enabling the same enforcer introduction)
   would recurse forever; re-entrant sub-problems return no plans -- any
   plan built through such a cycle has a strictly smaller acyclic
   counterpart.  Results are memoized per expression, except when a cycle
   was cut underneath (those depend on the call stack). *)
let rec optimize_all ctx expr : Expr.t list * bool =
  match Expr_tbl.find_opt ctx.memo expr with
  | Some plans -> (plans, false)
  | None ->
    if List.exists (Expr.equal expr) ctx.in_progress then ([], true)
    else begin
      ctx.in_progress <- expr :: ctx.in_progress;
      let cut = ref false in
      let plans =
        distinct_roots
          (List.concat_map
             (fun form ->
               let plans, c = implement ctx form in
               if c then cut := true;
               plans)
             (logical_forms ?max_forms:ctx.max_forms ctx.ruleset expr))
      in
      ctx.in_progress <- List.tl ctx.in_progress;
      if not !cut then Expr_tbl.replace ctx.memo expr plans;
      (plans, !cut)
    end

and implement ctx expr : Expr.t list * bool =
  match expr with
  | Expr.Stored _ -> ([ expr ], false)
  | Expr.Node (Expr.Algorithm, _, _, _) -> ([ expr ], false)
  | Expr.Node (Expr.Operator, name, _, _) ->
    let cut = ref false in
    let try_rule (rule : Irule.t) =
      match Eval.begin_irule ctx.ruleset.helpers rule expr with
      | None -> []
      | Some app -> (
        match Eval.input_requirements app with
        | None -> []
        | Some reqs ->
          let per_input =
            List.map
              (fun (i, sub) ->
                let plans, c = optimize_all ctx sub in
                if c then cut := true;
                List.map (fun plan -> (i, plan)) plans)
              reqs
          in
          List.map
            (fun optimized_inputs ->
              Eval.finish_irule ctx.ruleset.helpers app ~optimized_inputs)
            (cartesian per_input))
    in
    let plans = List.concat_map try_rule (Ruleset.irules_for ctx.ruleset name) in
    (plans, !cut)

let plans ?max_forms ruleset ~required expr =
  let ctx = { ruleset; max_forms; memo = Expr_tbl.create 64; in_progress = [] } in
  match
    Eval.pose expr
      (Descriptor.merge ~base:(Expr.descriptor expr) ~overrides:required)
  with
  | None -> []
  | Some expr -> fst (optimize_all ctx expr)

let best_plan ?max_forms ruleset ~required expr =
  List.fold_left
    (fun best plan ->
      let cost = Expr.cost plan in
      match best with
      | Some b when b.cost <= cost -> best
      | _ -> Some { plan; cost })
    None
    (plans ?max_forms ruleset ~required expr)

let plan_count ?max_forms ruleset ~required expr =
  List.length (plans ?max_forms ruleset ~required expr)
