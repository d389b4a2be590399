module Descriptor = Prairie.Descriptor
module Span = Prairie_obs.Span

type t = {
  memo : Memo.t;
  rules : Rule.ruleset;
  restrict_cache : Descriptor.t Descriptor.Tbl.t;
      (** memoized [Rule.restrict_physical] — the projection runs once per
          distinct descriptor instead of once per optimize call *)
  st : Stats.t;  (** [Memo.stats memo] *)
  group_budget : int option;
  mutable budget_hit_at : int option;
      (** the memo's group count when the budget first capped exploration *)
  spans : Span.t option;
}

let create ?group_budget ?spans rules =
  let memo = Memo.create ?spans () in
  {
    memo;
    rules;
    restrict_cache = Descriptor.Tbl.create 64;
    st = Memo.stats memo;
    group_budget;
    budget_hit_at = None;
    spans;
  }

(* Instrumentation: every site is one match on [spans] whose [None] branch
   builds nothing — no event, no closure, no [Some rule] — so an untraced
   search allocates nothing for it.  Parent handles are threaded
   explicitly through the mutual recursion below — never stored in the
   context — and every event is emitted under the innermost span open at
   its site. *)

let budget_exhausted t ~span =
  match t.group_budget with
  | None -> false
  | Some budget ->
    let groups = Memo.group_count t.memo in
    let hit = groups >= budget in
    if hit && Option.is_none t.budget_hit_at then begin
      t.budget_hit_at <- Some groups;
      match t.spans with
      | None -> ()
      | Some sink -> Span.emit sink ?span (Span.Budget_hit { groups })
    end;
    hit

let budget_hit_at t = t.budget_hit_at
let budget_was_hit t = Option.is_some t.budget_hit_at

let ruleset t = t.rules
let memo t = t.memo
let stats t = t.st
let spans t = t.spans
let group_count t = Memo.group_count t.memo

let restrict_req ctx d =
  if Descriptor.is_empty d then d
  else
    match Descriptor.Tbl.find_opt ctx.restrict_cache d with
    | Some r -> r
    | None ->
      let r = Rule.restrict_physical ctx.rules d in
      Descriptor.Tbl.replace ctx.restrict_cache d r;
      r

(* Matching environments: the rule's stream slots bind groups, its
   descriptor slots bind descriptors (group descriptors for [Di], lexpr
   arguments for operator descriptor variables).  An environment is owned
   by one partial match: matching writes into it in place and copies it
   only where one partial match forks into several. *)
type menv = {
  streams : Memo.gid array;
  descs : Rule.env;
}

let fresh_menv (tr : Rule.trans_rule) =
  {
    streams = Array.make tr.Rule.tr_streams (-1);
    descs = Array.make (Array.length tr.Rule.tr_slots) Descriptor.empty;
  }

let copy_menv env =
  { streams = Array.copy env.streams; descs = Array.copy env.descs }

(* The trans rules worth trying against a lexpr, paired with their rule
   ids.  The match index drops only rules whose root operator differs from
   the lexpr's — matches that would return no bindings and record
   nothing.  Every rule is rooted at an operator, so none matches a
   stored file. *)
let candidates ctx (le : Memo.lexpr) =
  match le.Memo.node with
  | Memo.L_op op -> Rule.trans_rules_for ctx.rules op
  | Memo.L_file _ -> []

let gtree_of_tmpl (build : Rule.rhs_slots) env =
  let rec go = function
    | Rule.Build_var s -> Memo.Gleaf env.streams.(s)
    | Rule.Build_op (name, d, subs) ->
      Memo.Gnode (name, env.descs.(d), List.map go subs)
  in
  go build

(* Does a lexpr have the operator and arity of a pattern node? *)
let heads_match (pat : Rule.match_op) (le : Memo.lexpr) =
  match le.Memo.node with
  | Memo.L_op n -> String.equal n pat.op && Array.length le.Memo.inputs = pat.arity
  | Memo.L_file _ -> false

(* ------------------------------------------------------------------ *)
(* Exploration                                                         *)
(* ------------------------------------------------------------------ *)

(* Exploration generates all members of a group by applying trans rules to
   fixpoint; multi-level patterns recursively explore input groups.

   The fixpoint is driven as a worklist: each round snapshots the group's
   member list and processes only the members not seen by a previous round,
   so a round costs O(new members × rules) instead of O(all members ×
   rules).  Merges fold the dead group's members into the snapshot of the
   next round.  The per-(lexpr, rule) [rule_tried] guard is what gates rule
   application, so at the fixpoint every member has tried every candidate
   rule (the test suite checks this saturation over the public [Memo] API). *)
let rec explore ctx parent gid =
  let g = Memo.canonical ctx.memo gid in
  if Memo.is_explored ctx.memo g || Memo.is_exploring ctx.memo g then ()
  else begin
    let sp =
      match ctx.spans with
      | None -> None
      | Some sink -> Some (Span.enter sink ?parent Span.Explore)
    in
    Memo.set_exploring ctx.memo g true;
    let seen = Hashtbl.create 32 in
    let changed = ref true in
    while !changed && not (budget_exhausted ctx ~span:sp) do
      changed := false;
      let merges_before = ctx.st.Stats.groups_merged in
      let members =
        List.filter
          (fun (le : Memo.lexpr) -> not (Hashtbl.mem seen le.Memo.id))
          (Memo.lexprs ctx.memo g)
      in
      List.iter
        (fun (le : Memo.lexpr) ->
          Hashtbl.replace seen le.Memo.id ();
          apply_trans_rules ctx sp g le ~changed)
        members;
      if ctx.st.Stats.groups_merged > merges_before then changed := true
    done;
    let g = Memo.canonical ctx.memo g in
    Memo.set_exploring ctx.memo g false;
    Memo.set_explored ctx.memo g true;
    match (ctx.spans, sp) with Some sink, Some h -> Span.exit sink h | _ -> ()
  end

and apply_trans_rules ctx parent g le ~changed =
  List.iter (fun r -> apply_rule ctx parent g le r ~changed) (candidates ctx le)

and apply_rule ctx parent g le ((tr_id, tr) : int * Rule.trans_rule) ~changed =
  if not (Memo.rule_tried ctx.memo le tr_id) then begin
    Memo.mark_rule_tried ctx.memo le tr_id;
    let msp =
      match ctx.spans with
      | None -> None
      | Some sink -> Some (Span.enter sink ~rule:tr.tr_name ?parent Span.Match)
    in
    let envs =
      if heads_match tr.tr_match le then
        match_lexpr ctx msp tr.tr_match le (fresh_menv tr)
      else []
    in
    (match (ctx.spans, msp) with Some sink, Some h -> Span.exit sink h | _ -> ());
    if envs <> [] then begin
      let bindings = List.length envs in
      let acct = Stats.trans_account ctx.st tr.tr_name in
      acct.matched <- acct.matched + 1;
      acct.bindings <- acct.bindings + bindings;
      (match ctx.spans with
      | None -> ()
      | Some sink ->
        Span.emit sink ?span:parent
          (Span.Trans_matched { rule = tr.tr_name; gid = g; bindings }));
      List.iter
        (fun env ->
          if not (tr.tr_cond env.descs) then begin
            acct.rejected_test <- acct.rejected_test + 1;
            match ctx.spans with
            | None -> ()
            | Some sink ->
              Span.emit sink ?span:parent
                (Span.Trans_rejected
                   { rule = tr.tr_name; gid = g; reason = Span.Test_failed })
          end
          else begin
            let asp =
              match ctx.spans with
              | None -> None
              | Some sink ->
                Some (Span.enter sink ~rule:tr.tr_name ?parent Span.Apply)
            in
            tr.tr_appl env.descs;
            let gtree = gtree_of_tmpl tr.tr_build env in
            let target = Memo.canonical ctx.memo g in
            let _, fresh =
              Memo.insert_gtree ctx.memo ~into:target ?span_parent:asp gtree
            in
            acct.applied <- acct.applied + 1;
            if fresh then begin
              acct.fresh <- acct.fresh + 1;
              changed := true
            end;
            match (ctx.spans, asp) with
            | Some sink, Some h ->
              Span.emit sink ~span:h
                (Span.Trans_applied { rule = tr.tr_name; gid = g; fresh });
              Span.exit sink h
            | _ -> ()
          end)
        envs
    end
  end

(* All bindings of an operator pattern against a lexpr whose head matches
   it, extending [env] (which the call owns). *)
and match_lexpr ctx parent (pat : Rule.match_op) (le : Memo.lexpr) env :
    menv list =
  env.descs.(pat.desc) <- le.Memo.arg;
  let rec fold_inputs i pats envs =
    match pats with
    | [] -> envs
    | p :: rest ->
      let g = le.Memo.inputs.(i) in
      let envs' = List.concat_map (fun e -> match_sub ctx parent p g e) envs in
      fold_inputs (i + 1) rest envs'
  in
  fold_inputs 0 pat.subs [ env ]

(* All bindings of [pat] against any member of group [g], extending [env]
   (which the call owns). *)
and match_sub ctx parent (pat : Rule.lhs_slots) g env : menv list =
  let g = Memo.canonical ctx.memo g in
  match pat with
  | Rule.Match_var { stream; desc } ->
    env.streams.(stream) <- g;
    env.descs.(desc) <- Memo.group_desc ctx.memo g;
    [ env ]
  | Rule.Match_op op ->
    explore ctx parent g;
    let g = Memo.canonical ctx.memo g in
    List.concat_map
      (fun le ->
        if heads_match op le then match_lexpr ctx parent op le (copy_menv env)
        else [])
      (Memo.lexprs ctx.memo g)

let explore_group ctx gid = explore ctx None gid

(* FindBestPlan *)
let rec optimize_group_at ctx gid ~req ~limit ~parent : Plan.t option =
  let req = restrict_req ctx req in
  let g = Memo.canonical ctx.memo gid in
  ctx.st.Stats.optimize_calls <- ctx.st.Stats.optimize_calls + 1;
  match Memo.find_winner ctx.memo g req with
  | Some { plan = Some p; cost; _ } ->
    ctx.st.Stats.memo_hits <- ctx.st.Stats.memo_hits + 1;
    (match ctx.spans with
    | None -> ()
    | Some sink -> Span.emit sink ?span:parent (Span.Memo_hit { gid = g }));
    if cost <= limit then Some p else None
  | Some { plan = None; searched_limit; _ } when limit <= searched_limit ->
    ctx.st.Stats.memo_hits <- ctx.st.Stats.memo_hits + 1;
    (match ctx.spans with
    | None -> ()
    | Some sink -> Span.emit sink ?span:parent (Span.Memo_hit { gid = g }));
    None
  | Some _ | None -> search_group ctx g ~req ~limit ~parent

and search_group ctx g ~req ~limit ~parent =
  explore ctx parent g;
  let g = Memo.canonical ctx.memo g in
  let best : (Plan.t * float) option ref = ref None in
  let budget () =
    match !best with None -> limit | Some (_, c) -> Float.min limit c
  in
  let consider ~span plan cost =
    if Rule.default_satisfies ~required:req ~actual:(Plan.descriptor plan)
    then
      match !best with
      | Some (_, c) when c <= cost -> ()
      | prev ->
        (match ctx.spans with
        | None -> ()
        | Some sink ->
          Span.emit sink ?span
            (Span.Winner_changed
               {
                 gid = g;
                 alg =
                   (match plan with
                   | Plan.Alg (a, _, _) -> a
                   | Plan.Leaf (n, _) -> n);
                 old_cost = Option.map snd prev;
                 new_cost = cost;
               }));
        ctx.st.Stats.winner_changes <- ctx.st.Stats.winner_changes + 1;
        best := Some (plan, cost)
  in
  let members = Memo.lexprs ctx.memo g in
  let files_only =
    List.for_all (fun le -> match le.Memo.node with Memo.L_file _ -> true | Memo.L_op _ -> false) members
  in
  List.iter
    (fun le -> cost_lexpr ctx parent g le ~req ~budget ~consider)
    members;
  (* Enforcers establish required properties on top of a plan for the same
     group optimized under a relaxed requirement.  Stored files are not
     streams; enforcers never apply directly to file groups. *)
  if not files_only then
    List.iter
      (fun (en : Rule.enforcer) ->
        if en.Rule.en_applies ~req then begin
          let relaxed = restrict_req ctx (en.Rule.en_relaxed ~req) in
          if not (Descriptor.equal relaxed req) then begin
            let esp =
              match ctx.spans with
              | None -> None
              | Some sink ->
                Some (Span.enter sink ~rule:en.Rule.en_alg ?parent Span.Enforcer)
            in
            (match
               optimize_group_at ctx g ~req:relaxed ~limit:(budget ())
                 ~parent:esp
             with
            | None -> ()
            | Some sub ->
              let desc =
                en.Rule.en_finalize ~req ~input:(Plan.descriptor sub)
              in
              ctx.st.Stats.enforcer_firings <-
                ctx.st.Stats.enforcer_firings + 1;
              (match ctx.spans with
              | None -> ()
              | Some sink ->
                Span.emit sink ?span:esp
                  (Span.Enforcer_inserted { alg = en.Rule.en_alg; gid = g }));
              consider ~span:esp
                (Plan.Alg (en.Rule.en_alg, desc, [ sub ]))
                (Descriptor.cost desc));
            match (ctx.spans, esp) with
            | Some sink, Some h -> Span.exit sink h
            | _ -> ()
          end
        end)
      ctx.rules.Rule.rs_enforcers;
  let g = Memo.canonical ctx.memo g in
  (match !best with
  | Some (plan, cost) ->
    Memo.set_winner ctx.memo g req
      { Memo.plan = Some plan; cost; searched_limit = limit }
  | None ->
    Memo.set_winner ctx.memo g req
      { Memo.plan = None; cost = infinity; searched_limit = limit });
  match !best with
  | Some (plan, cost) when cost <= limit -> Some plan
  | Some _ | None -> None

and cost_lexpr ctx parent g le ~req ~budget ~consider =
  match le.Memo.node with
  | Memo.L_file name ->
    (* A stored file delivers its catalog properties at no cost. *)
    consider ~span:parent
      (Plan.Leaf (name, le.Memo.arg))
      (Descriptor.cost le.Memo.arg)
  | Memo.L_op op ->
    List.iter
      (fun (ir : Rule.impl_rule) ->
        if ir.Rule.ir_arity = Array.length le.Memo.inputs then begin
          let csp =
            match ctx.spans with
            | None -> None
            | Some sink ->
              let h = Span.enter sink ~rule:ir.Rule.ir_name ?parent Span.Cost in
              Span.emit sink ~span:h
                (Span.Impl_matched { rule = ir.Rule.ir_name; gid = g });
              Some h
          in
          let acct = Stats.impl_account ctx.st ir.Rule.ir_name in
          acct.matched <- acct.matched + 1;
          let input_descs =
            Array.map (Memo.group_desc ctx.memo) le.Memo.inputs
          in
          if not (ir.Rule.ir_cond ~op_arg:le.Memo.arg ~req ~inputs:input_descs)
          then begin
            acct.rejected_test <- acct.rejected_test + 1;
            match ctx.spans with
            | None -> ()
            | Some sink ->
              Span.emit sink ?span:csp
                (Span.Impl_rejected
                   { rule = ir.Rule.ir_name; gid = g; reason = Span.Test_failed })
          end
          else begin
            acct.applied <- acct.applied + 1;
            (match ctx.spans with
            | None -> ()
            | Some sink ->
              Span.emit sink ?span:csp
                (Span.Impl_applied { rule = ir.Rule.ir_name; gid = g }));
            let reqs =
              ir.Rule.ir_input_reqs ~op_arg:le.Memo.arg ~req ~inputs:input_descs
            in
            (* optimize inputs left to right under a shrinking limit *)
            let n = Array.length le.Memo.inputs in
            let plans = Array.make n None in
            let spent = ref 0.0 in
            let ok = ref true in
            let i = ref 0 in
            while !ok && !i < n do
              let sub_limit = budget () -. !spent in
              (* no limit left to spend prunes without searching *)
              (match
                 if sub_limit < 0.0 then None
                 else
                   optimize_group_at ctx le.Memo.inputs.(!i) ~req:reqs.(!i)
                     ~limit:sub_limit ~parent:csp
               with
              | None ->
                ctx.st.Stats.pruned <- ctx.st.Stats.pruned + 1;
                acct.rejected_pruned <- acct.rejected_pruned + 1;
                (match ctx.spans with
                | None -> ()
                | Some sink ->
                  Span.emit sink ?span:csp
                    (Span.Impl_rejected
                       {
                         rule = ir.Rule.ir_name;
                         gid = g;
                         reason = Span.Pruned sub_limit;
                       }));
                ok := false
              | Some p ->
                plans.(!i) <- Some p;
                spent := !spent +. Plan.cost p);
              incr i
            done;
            if !ok then begin
              let achieved =
                Array.map
                  (function Some p -> Plan.descriptor p | None -> assert false)
                  plans
              in
              let desc =
                ir.Rule.ir_finalize ~op_arg:le.Memo.arg ~req ~inputs:achieved
              in
              ctx.st.Stats.impl_firings <- ctx.st.Stats.impl_firings + 1;
              let children =
                Array.to_list
                  (Array.map (function Some p -> p | None -> assert false) plans)
              in
              consider ~span:csp (Plan.Alg (ir.Rule.ir_alg, desc, children))
                (Descriptor.cost desc)
            end
          end;
          match (ctx.spans, csp) with
          | Some sink, Some h -> Span.exit sink h
          | _ -> ()
        end)
      (Rule.impl_rules_for ctx.rules op)

let optimize_group ctx gid ~req ~limit =
  optimize_group_at ctx gid ~req ~limit ~parent:None

let optimize ?(required = Descriptor.empty) ctx expr =
  let root =
    match ctx.spans with
    | None -> None
    | Some sink -> Some (Span.enter sink Span.Optimize)
  in
  let g = Memo.insert_expr ctx.memo ?span_parent:root expr in
  let req = restrict_req ctx required in
  let r = optimize_group_at ctx g ~req ~limit:infinity ~parent:root in
  (match (ctx.spans, root) with Some sink, Some h -> Span.exit sink h | _ -> ());
  r
