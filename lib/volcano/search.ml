module Descriptor = Prairie.Descriptor
module Pattern = Prairie.Pattern
module Trace = Prairie_obs.Trace
module Span = Prairie_obs.Span

(* tracing: enable with Logs.Src.set_level Search.log_src (Some Debug) *)
let log_src = Logs.Src.create "prairie.search" ~doc:"Volcano search tracing"

module Log = (val Logs.src_log log_src : Logs.LOG)

type exploration = [ `Worklist | `Rescan ]

type t = {
  memo : Memo.t;
  rules : Rule.ruleset;
  trans_rules : (int * Rule.trans_rule) list;
      (** [rs_trans] paired with its small integer rule ids (list position),
          the key space of the memo's [tried] table *)
  use_match_index : bool;
      (** consult [rs_match_index] so each lexpr only tries rules whose
          LHS root can match it; the skipped matches are exactly those
          that would return no bindings, so results are byte-identical *)
  restrict_cache : Descriptor.t Descriptor.Tbl.t;
      (** memoized [Rule.restrict_physical] — the projection runs once per
          distinct descriptor instead of once per optimize call *)
  st : Stats.t;
  pruning : bool;
  group_budget : int option;
  exploration : exploration;
  mutable budget_hit : bool;
  trace : Trace.t option;
  spans : Span.t option;
}

let create ?(pruning = true) ?group_budget ?(exploration = `Worklist)
    ?(match_index = true) ?trace ?spans rules =
  let st = Stats.create () in
  {
    memo = Memo.create ~stats:st ?trace ?spans ();
    rules;
    trans_rules = List.mapi (fun i tr -> (i, tr)) rules.Rule.rs_trans;
    use_match_index = match_index;
    restrict_cache = Descriptor.Tbl.create 64;
    st;
    pruning;
    group_budget;
    exploration;
    budget_hit = false;
    trace;
    spans;
  }

(* Single Option check when no sink is attached; events are allocated only
   inside the [Some] branch. *)
let emit ctx ev =
  match ctx.trace with None -> () | Some tr -> Trace.emit tr (ev ())

(* Same discipline for spans: [Span.enter_opt]/[Span.exit_opt] are one
   Option check each on the disabled path.  Parent handles are threaded
   explicitly through the mutual recursion below — never stored in the
   context. *)

let budget_exhausted t =
  match t.group_budget with
  | None -> false
  | Some budget ->
    let hit = Memo.group_count t.memo >= budget in
    if hit && not t.budget_hit then begin
      t.budget_hit <- true;
      emit t (fun () -> Trace.Budget_hit { groups = Memo.group_count t.memo });
      Log.debug (fun m -> m "group budget of %d reached; exploration capped" budget)
    end;
    hit

let budget_was_hit t = t.budget_hit

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

(* Matching environments: stream variables bind groups; descriptor
   variables bind descriptors (group descriptors for [Di], lexpr arguments
   for operator descriptor variables). *)
type menv = {
  streams : (int * Memo.gid) list;
  descs : Rule.denv;
}

let empty_menv = { streams = []; descs = [] }

(* The trans rules worth trying against a lexpr.  The match index drops
   only rules whose root operator differs from the lexpr's — matches that
   would return no bindings and record nothing — so both settings apply
   identical rules in identical order; only the tried-table bookkeeping
   for provably-failing rules is saved. *)
let candidates ctx (le : Memo.lexpr) =
  if not ctx.use_match_index then ctx.trans_rules
  else
    match le.Memo.node with
    | Memo.L_op op -> Rule.trans_rules_for ctx.rules (Some op)
    | Memo.L_file _ -> Rule.trans_rules_for ctx.rules None

let gtree_of_tmpl (tmpl : Pattern.tmpl) streams descs =
  let rec go = function
    | Pattern.Tvar (i, _) -> (
      match List.assoc_opt i streams with
      | Some g -> Memo.Gleaf g
      | None -> invalid_arg "trans rule RHS uses unbound stream variable")
    | Pattern.Tnode (name, dvar, subs) ->
      Memo.Gnode (name, Rule.denv_get descs dvar, List.map go subs)
  in
  go tmpl

(* ------------------------------------------------------------------ *)
(* Exploration                                                         *)
(* ------------------------------------------------------------------ *)

(* Exploration generates all members of a group by applying trans rules to
   fixpoint; multi-level patterns recursively explore input groups.

   The fixpoint is driven as a worklist: each round snapshots the group's
   member list and processes only the members not seen by a previous round,
   so a round costs O(new members × rules) instead of O(all members ×
   rules).  Merges fold the dead group's members into the snapshot of the
   next round.  Because the per-(lexpr, rule) [rule_tried] guard is what
   actually gates rule application — and it is maintained identically — the
   worklist applies exactly the same rules in exactly the same order as the
   legacy whole-group rescan ([`Rescan], kept for differential testing). *)
let rec explore ctx parent gid =
  let g = Memo.canonical ctx.memo gid in
  if Memo.is_explored ctx.memo g || Memo.is_exploring ctx.memo g then ()
  else begin
    let sp = Span.enter_opt ctx.spans ~parent Span.Explore in
    Memo.set_exploring ctx.memo g true;
    let processed =
      match ctx.exploration with
      | `Worklist -> Some (Hashtbl.create 32)
      | `Rescan -> None
    in
    let changed = ref true in
    while !changed && not (budget_exhausted ctx) do
      changed := false;
      let merges_before = ctx.st.Stats.groups_merged in
      let members =
        match processed with
        | None -> Memo.lexprs ctx.memo g
        | Some seen ->
          List.filter
            (fun (le : Memo.lexpr) -> not (Hashtbl.mem seen le.Memo.id))
            (Memo.lexprs ctx.memo g)
      in
      List.iter
        (fun (le : Memo.lexpr) ->
          (match processed with
          | Some seen -> Hashtbl.replace seen le.Memo.id ()
          | None -> ());
          apply_trans_rules ctx sp g le ~changed)
        members;
      if ctx.st.Stats.groups_merged > merges_before then changed := true
    done;
    let g = Memo.canonical ctx.memo g in
    Memo.set_exploring ctx.memo g false;
    Memo.set_explored ctx.memo g true;
    Span.exit_opt ctx.spans sp
  end

and apply_trans_rules ctx parent g le ~changed =
  List.iter (fun r -> apply_rule ctx parent g le r ~changed) (candidates ctx le)

and apply_rule ctx parent g le ((tr_id, tr) : int * Rule.trans_rule) ~changed =
  if not (Memo.rule_tried ctx.memo le tr_id) then begin
    Memo.mark_rule_tried ctx.memo le tr_id;
    let msp = Span.enter_opt ctx.spans ~rule:tr.tr_name ~parent Span.Match in
    let envs = match_lexpr ctx msp tr.tr_lhs le empty_menv in
    Span.exit_opt ctx.spans msp;
    if envs <> [] then begin
      Stats.record_trans_match ctx.st tr.tr_name;
      emit ctx (fun () ->
          Trace.Trans_matched
            { rule = tr.tr_name; gid = g; bindings = List.length envs })
    end;
    List.iter
      (fun env ->
        match tr.tr_cond env.descs with
        | None ->
          emit ctx (fun () ->
              Trace.Trans_rejected
                { rule = tr.tr_name; gid = g; reason = Trace.Test_failed })
        | Some descs ->
          let asp =
            Span.enter_opt ctx.spans ~rule:tr.tr_name ~parent Span.Apply
          in
          let descs = tr.tr_appl descs in
          Stats.record_trans_applied ctx.st tr.tr_name;
          emit ctx (fun () -> Trace.Trans_applied { rule = tr.tr_name; gid = g });
          Log.debug (fun m -> m "group %d: trans rule %s fired" g tr.tr_name);
          ctx.st.Stats.trans_applications <- ctx.st.Stats.trans_applications + 1;
          let gtree = gtree_of_tmpl tr.tr_rhs env.streams descs in
          let target = Memo.canonical ctx.memo g in
          let _, fresh =
            Memo.insert_gtree ctx.memo ~into:target ?span_parent:asp gtree
          in
          if fresh then changed := true;
          Span.exit_opt ctx.spans asp)
      envs
  end

(* All bindings of [pat] against a specific lexpr. *)
and match_lexpr ctx parent (pat : Pattern.t) (le : Memo.lexpr) env : menv list =
  match (pat, le.Memo.node) with
  | Pattern.Pop (name, dvar, subs), Memo.L_op n
    when String.equal n name && Array.length le.Memo.inputs = List.length subs
    ->
    let env = { env with descs = Rule.denv_set env.descs dvar le.Memo.arg } in
    let rec fold_inputs i pats envs =
      match pats with
      | [] -> envs
      | p :: rest ->
        let g = le.Memo.inputs.(i) in
        let envs' =
          List.concat_map (fun e -> match_sub ctx parent p g e) envs
        in
        fold_inputs (i + 1) rest envs'
    in
    fold_inputs 0 subs [ env ]
  | Pattern.Pop _, (Memo.L_op _ | Memo.L_file _) -> []
  | Pattern.Pvar _, _ ->
    invalid_arg "trans rule LHS must be rooted at an operator"

(* All bindings of [pat] against any member of group [g]. *)
and match_sub ctx parent (pat : Pattern.t) g env : menv list =
  let g = Memo.canonical ctx.memo g in
  match pat with
  | Pattern.Pvar i ->
    let desc = Memo.group_desc ctx.memo g in
    [
      {
        streams = (i, g) :: env.streams;
        descs = Rule.denv_set env.descs (Pattern.stream_desc_name i) desc;
      };
    ]
  | Pattern.Pop _ ->
    explore ctx parent g;
    let g = Memo.canonical ctx.memo g in
    List.concat_map
      (fun le -> match_lexpr ctx parent pat le env)
      (Memo.lexprs ctx.memo g)

let explore_group ctx ?span gid = explore ctx span gid
let infinity_limit = infinity

(* FindBestPlan *)
let rec optimize_group_at ctx gid ~req ~limit ~parent : Plan.t option =
  let req = restrict_req ctx req in
  let g = Memo.canonical ctx.memo gid in
  ctx.st.Stats.optimize_calls <- ctx.st.Stats.optimize_calls + 1;
  match Memo.find_winner ctx.memo g req with
  | Some { plan = Some p; cost; _ } ->
    ctx.st.Stats.memo_hits <- ctx.st.Stats.memo_hits + 1;
    emit ctx (fun () -> Trace.Memo_hit { gid = g });
    if (not ctx.pruning) || cost <= limit then Some p else None
  | Some { plan = None; searched_limit; _ }
    when (not ctx.pruning) || limit <= searched_limit ->
    ctx.st.Stats.memo_hits <- ctx.st.Stats.memo_hits + 1;
    emit ctx (fun () -> Trace.Memo_hit { gid = g });
    None
  | Some _ | None -> search_group ctx g ~req ~limit ~parent

and search_group ctx g ~req ~limit ~parent =
  Log.debug (fun m ->
      m "optimize group %d req=%a limit=%.2f" g Descriptor.pp req limit);
  explore ctx parent g;
  let g = Memo.canonical ctx.memo g in
  let best : (Plan.t * float) option ref = ref None in
  let budget () =
    if not ctx.pruning then infinity_limit
    else match !best with None -> limit | Some (_, c) -> Float.min limit c
  in
  let consider plan cost =
    if ctx.rules.Rule.rs_satisfies ~required:req ~actual:(Plan.descriptor plan)
    then
      match !best with
      | Some (_, c) when c <= cost -> ()
      | prev ->
        emit ctx (fun () ->
            Trace.Winner_changed
              {
                gid = g;
                alg =
                  (match plan with
                  | Plan.Alg (a, _, _) -> a
                  | Plan.Leaf (n, _) -> n);
                old_cost = Option.map snd prev;
                new_cost = cost;
              });
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
              Span.enter_opt ctx.spans ~rule:en.Rule.en_alg ~parent
                Span.Enforcer
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
              emit ctx (fun () ->
                  Trace.Enforcer_inserted { alg = en.Rule.en_alg; gid = g });
              consider (Plan.Alg (en.Rule.en_alg, desc, [ sub ])) (Descriptor.cost desc));
            Span.exit_opt ctx.spans esp
          end
        end)
      ctx.rules.Rule.rs_enforcers;
  let g = Memo.canonical ctx.memo g in
  (match !best with
  | Some (plan, cost) ->
    Log.debug (fun m -> m "group %d: winner %a cost=%.2f" g Plan.pp plan cost);
    Memo.set_winner ctx.memo g req
      { Memo.plan = Some plan; cost; searched_limit = limit }
  | None ->
    Memo.set_winner ctx.memo g req
      { Memo.plan = None; cost = infinity_limit; searched_limit = limit });
  match !best with
  | Some (plan, cost) when (not ctx.pruning) || cost <= limit -> Some plan
  | Some _ | None -> None

and cost_lexpr ctx parent g le ~req ~budget ~consider =
  match le.Memo.node with
  | Memo.L_file name ->
    (* A stored file delivers its catalog properties at no cost. *)
    consider (Plan.Leaf (name, le.Memo.arg)) (Descriptor.cost le.Memo.arg)
  | Memo.L_op op ->
    List.iter
      (fun (ir : Rule.impl_rule) ->
        if ir.Rule.ir_arity = Array.length le.Memo.inputs then begin
          let csp =
            Span.enter_opt ctx.spans ~rule:ir.Rule.ir_name ~parent Span.Cost
          in
          Stats.record_impl_match ctx.st ir.Rule.ir_name;
          emit ctx (fun () ->
              Trace.Impl_matched { rule = ir.Rule.ir_name; gid = g });
          let input_descs =
            Array.map (Memo.group_desc ctx.memo) le.Memo.inputs
          in
          if not (ir.Rule.ir_cond ~op_arg:le.Memo.arg ~req ~inputs:input_descs)
          then
            emit ctx (fun () ->
                Trace.Impl_rejected
                  {
                    rule = ir.Rule.ir_name;
                    gid = g;
                    reason = Trace.Test_failed;
                  })
          else begin
            Stats.record_impl_applied ctx.st ir.Rule.ir_name;
            emit ctx (fun () ->
                Trace.Impl_applied { rule = ir.Rule.ir_name; gid = g });
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
              let sub_limit =
                if ctx.pruning then budget () -. !spent else infinity_limit
              in
              (if ctx.pruning && sub_limit < 0.0 then begin
                 ctx.st.Stats.pruned <- ctx.st.Stats.pruned + 1;
                 emit ctx (fun () ->
                     Trace.Impl_rejected
                       {
                         rule = ir.Rule.ir_name;
                         gid = g;
                         reason = Trace.Pruned sub_limit;
                       });
                 ok := false
               end
               else
                 match
                   optimize_group_at ctx le.Memo.inputs.(!i) ~req:reqs.(!i)
                     ~limit:sub_limit ~parent:csp
                 with
                 | None ->
                   if ctx.pruning then
                     ctx.st.Stats.pruned <- ctx.st.Stats.pruned + 1;
                   emit ctx (fun () ->
                       Trace.Impl_rejected
                         {
                           rule = ir.Rule.ir_name;
                           gid = g;
                           reason =
                             (if ctx.pruning then Trace.Pruned sub_limit
                              else Trace.No_input_plan);
                         });
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
              consider (Plan.Alg (ir.Rule.ir_alg, desc, children))
                (Descriptor.cost desc)
            end
          end;
          Span.exit_opt ctx.spans csp
        end)
      (Rule.impl_rules_for ctx.rules op)

let optimize_group ctx ?span gid ~req ~limit =
  optimize_group_at ctx gid ~req ~limit ~parent:span

let optimize ?(required = Descriptor.empty) ctx expr =
  let root = Span.enter_opt ctx.spans ~parent:None Span.Optimize in
  let g =
    match root with
    | None -> Memo.insert_expr ctx.memo expr
    | Some h -> Memo.insert_expr ctx.memo ~span_parent:h expr
  in
  let req = restrict_req ctx required in
  let r = optimize_group_at ctx g ~req ~limit:infinity_limit ~parent:root in
  Span.exit_opt ctx.spans root;
  r
