module D = Prairie.Descriptor
module V = Prairie_value.Value
module O = Prairie_value.Order
module P = Prairie_value.Predicate
module Span = Prairie_obs.Span

let param_of desc =
  let pred name =
    match D.find desc name with
    | Some (V.Pred p) when not (P.equal p P.True) -> Some (P.to_string p)
    | _ -> None
  in
  let attrs name =
    match D.find desc name with
    | Some (V.Attrs (_ :: _ as l)) ->
      Some (String.concat ", " (List.map Prairie_value.Attribute.to_string l))
    | _ -> None
  in
  match pred "selection_predicate" with
  | Some s -> Some s
  | None -> (
    match pred "join_predicate" with
    | Some s -> Some s
    | None -> (
      match attrs "mat_attribute" with
      | Some s -> Some ("deref " ^ s)
      | None -> (
        match attrs "unnest_attribute" with
        | Some s -> Some ("unnest " ^ s)
        | None -> attrs "projected_attributes")))

let annotations ~leaf desc =
  let buf = Buffer.create 32 in
  if not leaf then Buffer.add_string buf (Printf.sprintf "cost=%.2f  " (D.cost desc));
  (match D.find desc "num_records" with
  | Some (V.Int n) -> Buffer.add_string buf (Printf.sprintf "rows=%d" n)
  | _ -> ());
  (match D.get_order desc "tuple_order" with
  | O.Any -> ()
  | o -> Buffer.add_string buf (Printf.sprintf "  order=%s" (O.to_string o)));
  Buffer.contents buf

let pp ppf plan =
  let rec go prefix child_prefix (p : Plan.t) =
    let label, desc, leaf, inputs =
      match p with
      | Plan.Leaf (name, d) -> (name, d, true, [])
      | Plan.Alg (alg, d, inputs) ->
        let label =
          match param_of d with
          | Some param -> Printf.sprintf "%s [%s]" alg param
          | None -> alg
        in
        (label, d, false, inputs)
    in
    Format.fprintf ppf "%s%-46s %s@." prefix label (annotations ~leaf desc);
    let n = List.length inputs in
    List.iteri
      (fun i sub ->
        let last = i = n - 1 in
        let branch = if last then "└─ " else "├─ " in
        let cont = if last then "   " else "│  " in
        go (child_prefix ^ branch) (child_prefix ^ cont) sub)
      inputs
  in
  go "" "" plan

let to_string plan = Format.asprintf "%a" pp plan

let summary plan =
  let desc = Plan.descriptor plan in
  let rows =
    match D.find desc "num_records" with
    | Some (V.Int n) -> string_of_int n
    | _ -> "?"
  in
  Printf.sprintf "cost %.2f, ~%s rows, algorithms: %s" (Plan.cost plan) rows
    (String.concat ", " (Plan.algorithms plan))

(* ------------------------------------------------------------------ *)
(* Trace rendering: the per-rule account of a recorded search          *)
(* ------------------------------------------------------------------ *)

let rejection_note (a : Stats.account) =
  let parts =
    List.filter
      (fun (n, _) -> n > 0)
      [
        (a.rejected_test, "test failed");
        (a.rejected_pruned, "pruned by cost limit");
      ]
  in
  String.concat ", "
    (List.map (fun (n, label) -> Printf.sprintf "%d× %s" n label) parts)

(* [dups] adds the fresh/duplicate split of the applications (trans
   rules: an application that rebuilt an expression the memo already held
   is a duplicate). *)
let pp_accounts ?(dups = false) ppf kind accounts =
  if accounts <> [] then begin
    Format.fprintf ppf "@,@[<v 2>%s rules:" kind;
    Format.fprintf ppf "@,%-28s %8s %8s" "rule" "matched" "applied";
    if dups then Format.fprintf ppf " %8s %8s" "fresh" "dup";
    Format.fprintf ppf " %8s  %s" "rejected" "rejection reasons";
    (* trans matches carry a binding count (one cond test per binding);
       impl matches are one test each — report the tested bindings so
       applied + rejected(test) adds up *)
    let tested (a : Stats.account) =
      if a.bindings > 0 then a.bindings else a.matched
    in
    List.iter
      (fun (rule, (a : Stats.account)) ->
        let rejected = a.rejected_test + a.rejected_pruned in
        Format.fprintf ppf "@,%-28s %8d %8d" rule (tested a) a.applied;
        if dups then
          Format.fprintf ppf " %8d %8d" a.fresh (a.applied - a.fresh);
        Format.fprintf ppf " %8d  %s" rejected
          (if rejected = 0 then "-" else rejection_note a))
      accounts;
    (* the debugging story: rules that matched but never produced a plan *)
    List.iter
      (fun (rule, (a : Stats.account)) ->
        if a.matched > 0 && a.applied = 0 then
          Format.fprintf ppf
            "@,%s matched %d time%s but never applied: %s" rule (tested a)
            (if tested a = 1 then "" else "s")
            (rejection_note a))
      accounts;
    Format.fprintf ppf "@]"
  end

let trace ppf search =
  let st = Search.stats search in
  Format.fprintf ppf "@[<v>search trace:";
  (match Search.spans search with
  | Some sink ->
    (* the ring holds spans and events together *)
    let emitted = Span.event_count sink in
    let retained = Span.length sink - List.length (Span.records sink) in
    Format.fprintf ppf " %d events (%d dropped)" emitted (emitted - retained)
  | None -> Format.fprintf ppf " no span sink");
  Format.fprintf ppf
    "@,%d groups created, %d merged, %d memo hits, %d enforcer insertions, \
     %d winner changes"
    st.Stats.groups_created st.Stats.groups_merged st.Stats.memo_hits
    st.Stats.enforcer_firings st.Stats.winner_changes;
  (match Search.budget_hit_at search with
  | Some groups ->
    Format.fprintf ppf
      "@,group budget exhausted at %d groups: exploration was capped and \
       the plan may be sub-optimal"
      groups
  | None -> ());
  pp_accounts ~dups:true ppf "transformation" (Stats.trans_accounts st);
  pp_accounts ppf "implementation" (Stats.impl_accounts st);
  Format.fprintf ppf "@]"

(* ------------------------------------------------------------------ *)
(* Span profile rendering: where did the time go, per phase and rule   *)
(* ------------------------------------------------------------------ *)

let ms_of_ns ns = Int64.to_float ns /. 1e6

let profile ppf (sink : Span.t) =
  let rows = Span.profile sink in
  let total = Span.root_total_ns sink in
  let completed = Span.span_count sink in
  Format.fprintf ppf
    "@[<v>span profile: %d spans (%d dropped from the ring; aggregates are \
     exact), %d root span%s, rooted total %.3f ms"
    completed
    (completed - List.length (Span.records sink))
    (Span.root_count sink)
    (if Span.root_count sink = 1 then "" else "s")
    (ms_of_ns total);
  if rows <> [] then begin
    Format.fprintf ppf "@,%-12s %-28s %9s %12s %12s %6s %10s" "phase" "rule"
      "count" "total(ms)" "self(ms)" "self%" "minor(kw)";
    let tf = Int64.to_float total in
    List.iter
      (fun (a : Span.agg) ->
        Format.fprintf ppf "@,%-12s %-28s %9d %12.3f %12.3f %5.1f%% %10.1f"
          (Span.phase_label a.Span.a_phase)
          (match a.Span.a_rule with Some r -> r | None -> "-")
          a.Span.a_count
          (ms_of_ns a.Span.a_total_ns)
          (ms_of_ns a.Span.a_self_ns)
          (if tf > 0.0 then 100.0 *. Int64.to_float a.Span.a_self_ns /. tf
           else 0.0)
          (a.Span.a_minor_words /. 1e3))
      rows
  end;
  Format.fprintf ppf "@]"
