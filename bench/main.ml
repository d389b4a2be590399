(* The benchmark harness: regenerates every table and figure of the paper's
   evaluation (§4).  Run with no arguments for everything, or name sections:

     dune exec bench/main.exe -- table5 fig10 fig14
     dune exec bench/main.exe -- --full      (wider sweeps)

   Sections: table1 table2 table34 table5 fig10 fig11 fig12 fig13 fig14
             rules relational star strategies distributed ablations
             service obs bechamel *)

module W = Prairie_workload
module Opt = Prairie_optimizers.Optimizers
module Search = Prairie_volcano.Search
module Stats = Prairie_volcano.Stats
module P2v = Prairie_p2v
module Rel = Prairie_algebra.Relational
module S = Support
module Obs = Prairie_obs

let full = ref false

(* Registry behind the --metrics FILE flag; the section that can
   self-report ([service]) feeds it, and the driver dumps it in
   Prometheus text format after the run. *)
let metrics : Obs.Metrics.t option ref = ref None

(* ------------------------------------------------------------------ *)
(* Table 1: operators, algorithms and additional parameters            *)
(* ------------------------------------------------------------------ *)

let table1 () =
  S.header "Table 1: operators and algorithms (relational algebra of Sec. 2)";
  let rows =
    [
      ("JOIN(S1, S2)", "join streams S1, S2", "join_predicate, tuple_order",
       "Nested_loops, Merge_join (via JOPR)");
      ("RET(F)", "retrieve file F", "selection_predicate, tuple_order",
       "File_scan, Index_scan");
      ("SORT(S1)", "sort stream S1", "tuple_order", "Merge_sort, Null");
    ]
  in
  Printf.printf "  %-14s %-24s %-38s %s\n" "Operator" "Description"
    "Additional parameters" "Algorithms";
  List.iter
    (fun (o, d, p, a) -> Printf.printf "  %-14s %-24s %-38s %s\n" o d p a)
    rows;
  S.subheader "Open OODB algebra (Sec. 4.3)";
  let cat = W.Catalogs.make (W.Catalogs.default_spec ~classes:2 ~indexed:true ~seed:1) in
  let rs = Prairie_algebra.Oodb.ruleset cat in
  Printf.printf "  operators:  %s\n" (String.concat ", " rs.Prairie.Ruleset.operators);
  Printf.printf "  algorithms: %s\n" (String.concat ", " rs.Prairie.Ruleset.algorithms)

(* ------------------------------------------------------------------ *)
(* Table 2: descriptor properties                                       *)
(* ------------------------------------------------------------------ *)

let table2 () =
  S.header "Table 2: properties of nodes in an operator tree (live schema)";
  let descriptions =
    [
      ("join_predicate", "join predicate for JOIN");
      ("selection_predicate", "selection predicate for RET/SELECT");
      ("tuple_order", "tuple order of the stream, DONT_CARE if none");
      ("num_records", "number of tuples of the stream");
      ("tuple_size", "size of an individual tuple");
      ("projected_attributes", "projected attribute list for PROJECT");
      ("attributes", "attribute list of the stream");
      ("cost", "estimated cost of the algorithm");
      ("mat_attribute", "reference attribute MAT dereferences");
      ("unnest_attribute", "set-valued attribute UNNEST expands");
      ("indexes", "indexed attributes of a stored file");
      ("file_name", "name of a stored file");
      ("site", "site the stream lives at (distributed algebra)");
    ]
  in
  Printf.printf "  %-22s %-11s %s
" "Property" "Type" "Description";
  List.iter
    (fun (prop : Prairie.Property.t) ->
      Printf.printf "  %-22s %-11s %s
" prop.Prairie.Property.name
        (Prairie_value.Value.ty_to_string prop.Prairie.Property.ty)
        (match List.assoc_opt prop.Prairie.Property.name descriptions with
        | Some d -> d
        | None -> ""))
    Prairie_algebra.Props.schema

(* ------------------------------------------------------------------ *)
(* Tables 3 and 4: the Prairie <-> Volcano correspondence, realized     *)
(* ------------------------------------------------------------------ *)

let table34 () =
  S.header "Tables 3-4: correspondence of elements, from the live translation";
  let cat = W.Catalogs.make (W.Catalogs.default_spec ~classes:2 ~indexed:true ~seed:1) in
  let rs = Prairie_algebra.Oodb.ruleset cat in
  let tr = P2v.Translate.translate rs in
  let m = tr.P2v.Translate.merge in
  let c = tr.P2v.Translate.classification in
  let enf = m.P2v.Merge.enforcer_infos in
  Printf.printf "  %-28s %s
" "Prairie" "Volcano";
  Printf.printf "  %-28s %s
" "operator" "operator";
  Printf.printf "  %-28s %s
" "algorithm" "algorithm";
  List.iter
    (fun (i : P2v.Enforcers.info) ->
      Printf.printf "  enforcer-operator %-10s (deleted)
" i.P2v.Enforcers.operator;
      List.iter
        (fun r ->
          Printf.printf "  enforcer-algorithm %-9s enforcer
"
            (Prairie.Irule.algorithm r))
        i.P2v.Enforcers.algorithm_rules;
      Printf.printf "  %-28s %s\n" "Null algorithm" "(deleted)")
    enf;
  Printf.printf "  %-28s %s
" "operator tree" "logical expression (memo lexprs)";
  Printf.printf "  %-28s %s
" "access plan" "physical expression (Plan.t)";
  Printf.printf "  descriptor split:
";
  Printf.printf "    cost properties          -> cost: %s
"
    (String.concat ", " c.P2v.Classify.cost);
  Printf.printf "    physical properties      -> physical property vector: %s
"
    (String.concat ", " c.P2v.Classify.physical);
  Printf.printf "    remaining properties     -> operator/algorithm argument (%d)
"
    (List.length c.P2v.Classify.argument);
  Printf.printf "
  rule translation (Table 4):
";
  Printf.printf "    %d T-rules  -> %d trans_rules (pre-test+test -> cond_code, post-test -> appl_code)
"
    (Prairie.Ruleset.trule_count rs)
    (P2v.Merge.trans_rule_count m);
  Printf.printf "    %d I-rules  -> %d impl_rules (test -> cond_code, pre-opt -> do_any_good/get_input_pv,
"
    (Prairie.Ruleset.irule_count rs)
    (P2v.Merge.impl_rule_count m);
  Printf.printf "                  %24s post-opt -> derive_phy_prop/cost) + %d enforcers
" ""
    (P2v.Merge.enforcer_count m);
  List.iter
    (fun (t, i) -> Printf.printf "    composed: %s + %s
" t i)
    m.P2v.Merge.composed

(* ------------------------------------------------------------------ *)
(* Table 5: queries and rules matched                                   *)
(* ------------------------------------------------------------------ *)

let table5 () =
  S.header "Table 5: queries used in experiments (rules matched, 2 joins)";
  Printf.printf "  %-5s %-8s %-10s %12s %12s %12s %12s\n" "Query" "Indices?"
    "Expression" "trans match" "impl match" "trans appl" "impl appl";
  List.iter
    (fun q ->
      let inst = W.Queries.instance q ~joins:2 ~seed:101 in
      let r = Opt.optimize (Opt.oodb_prairie inst.W.Queries.catalog) inst.W.Queries.expr in
      let st = Search.stats r.Opt.search in
      S.record_row
        [
          ("section", S.Json.Str "table5");
          ("query", S.Json.Str (W.Queries.name q));
          ("trans_matched", S.Json.Int (Stats.trans_matched_count st));
          ("impl_matched", S.Json.Int (Stats.impl_matched_count st));
          ("trans_applied", S.Json.Int (Stats.trans_applied_count st));
          ("impl_applied", S.Json.Int (Stats.impl_applied_count st));
          ("cost", S.Json.Float r.Opt.cost);
        ];
      Printf.printf "  %-5s %-8s %-10s %12d %12d %12d %12d\n" (W.Queries.name q)
        (if W.Queries.indexed q then "Yes" else "No")
        (W.Expressions.family_name (W.Queries.family q))
        (Stats.trans_matched_count st) (Stats.impl_matched_count st)
        (Stats.trans_applied_count st) (Stats.impl_applied_count st))
    W.Queries.all;
  print_newline ();
  Printf.printf
    "  Paper's shape: matched-rule counts grow monotonically E1 <= E2 <= E3 <= E4\n\
    \  (paper: 2/2, 5/3, 8/4, 8/4, 9/5, 9/5, 16/7, 16/7 with their rule set).\n"

(* ------------------------------------------------------------------ *)
(* Figures 10-13: optimization time vs number of joins                 *)
(* ------------------------------------------------------------------ *)

let figure ~section name (qa, qb) ~max_joins ~budget_s () =
  S.header
    (Printf.sprintf
       "%s: per-query optimization time, Prairie (P2V) vs hand-coded Volcano"
       name);
  let max_joins = if !full then max_joins + 2 else max_joins in
  S.print_points ~section (W.Queries.name qa) (S.sweep qa ~max_joins ~budget_s);
  S.print_points ~section (W.Queries.name qb) (S.sweep qb ~max_joins ~budget_s);
  Printf.printf
    "  Paper's shape: both optimizers within a few percent of each other;\n\
    \  super-exponential growth with the number of joins.\n"

let fig10 = figure ~section:"fig10" "Figure 10 (E1: joins of base classes)" (W.Queries.Q1, W.Queries.Q2) ~max_joins:6 ~budget_s:5.0
let fig11 = figure ~section:"fig11" "Figure 11 (E2: MATerialize before join)" (W.Queries.Q3, W.Queries.Q4) ~max_joins:4 ~budget_s:5.0
let fig12 = figure ~section:"fig12" "Figure 12 (E3: SELECT over E1)" (W.Queries.Q5, W.Queries.Q6) ~max_joins:3 ~budget_s:8.0
let fig13 = figure ~section:"fig13" "Figure 13 (E4: SELECT over E2)" (W.Queries.Q7, W.Queries.Q8) ~max_joins:3 ~budget_s:8.0

(* ------------------------------------------------------------------ *)
(* Figure 14: equivalence classes vs number of joins                   *)
(* ------------------------------------------------------------------ *)

let fig14 () =
  S.header "Figure 14: number of equivalence classes vs number of joins";
  let families =
    [
      (W.Expressions.E1, W.Queries.Q1, if !full then 8 else 6);
      (W.Expressions.E2, W.Queries.Q3, if !full then 5 else 4);
      (W.Expressions.E3, W.Queries.Q5, 3);
      (W.Expressions.E4, W.Queries.Q7, 3);
    ]
  in
  let max_n = List.fold_left (fun m (_, _, n) -> max m n) 0 families in
  Printf.printf "  %6s" "joins";
  List.iter
    (fun (f, _, _) -> Printf.printf "  %8s" (W.Expressions.family_name f))
    families;
  print_newline ();
  for joins = 1 to max_n do
    Printf.printf "  %6d" joins;
    List.iter
      (fun (_, q, cap) ->
        if joins > cap then Printf.printf "  %8s" "-"
        else begin
          let inst = W.Queries.instance q ~joins ~seed:101 in
          let r = Opt.optimize (Opt.oodb_prairie inst.W.Queries.catalog) inst.W.Queries.expr in
          S.record_row
            [
              ("section", S.Json.Str "fig14");
              ("query", S.Json.Str (W.Queries.name q));
              ("joins", S.Json.Int joins);
              ("groups", S.Json.Int (Search.group_count r.Opt.search));
              ( "lexprs",
                S.Json.Int
                  (Prairie_volcano.Memo.lexpr_count (Search.memo r.Opt.search))
              );
            ];
          Printf.printf "  %8d" (Search.group_count r.Opt.search)
        end)
      families;
    print_newline ()
  done;
  Printf.printf
    "  Paper's shape: growth rate increases with expression complexity; the\n\
    \  SELECT of E3/E4 interacts with every operator and explodes the space.\n"

(* ------------------------------------------------------------------ *)
(* Section 4.2: rule counts and specification sizes                    *)
(* ------------------------------------------------------------------ *)

let rules () =
  S.header "Section 4.2: the P2V translation report";
  let cat = W.Catalogs.make (W.Catalogs.default_spec ~classes:3 ~indexed:true ~seed:1) in
  List.iter
    (fun rs ->
      let tr = P2v.Translate.translate rs in
      Format.printf "%a@.@." P2v.Report.pp (P2v.Report.of_translation tr))
    [ Prairie_algebra.Oodb.ruleset cat; Rel.ruleset cat ];
  Printf.printf
    "  Paper: 22 T-rules + 11 I-rules -> 17 trans_rules + 9 impl_rules for\n\
    \  the Open OODB rule set; the larger Prairie rule count is the price of\n\
    \  making enforcers explicit, recovered automatically by merging.\n"

(* ------------------------------------------------------------------ *)
(* The relational optimizer experiment (from [5], summarized in Sec. 4) *)
(* ------------------------------------------------------------------ *)

let relational () =
  S.header "Relational optimizer (Sec. 2 algebra): Prairie-generated timings";
  let attr o n = Prairie_value.Attribute.make ~owner:o ~name:n in
  let eq a b =
    Prairie_value.Predicate.Cmp
      (Prairie_value.Predicate.Eq, Prairie_value.Predicate.T_attr a, Prairie_value.Predicate.T_attr b)
  in
  let build_catalog n seed =
    let rng = Prairie_util.Rng.create seed in
    Prairie_catalog.Catalog.of_files
      (List.init n (fun i ->
           Rel.relation
             ~name:(Printf.sprintf "R%d" (i + 1))
             ~cardinality:(Prairie_util.Rng.in_range rng 100 5000)
             ~indexes:[ "a" ]
             [ ("a", 50); ("b", 20) ]))
  in
  let build_query cat n =
    let rec go acc i =
      if i > n then acc
      else
        go
          (Rel.join cat
             ~pred:(eq (attr (Printf.sprintf "R%d" (i - 1)) "a") (attr (Printf.sprintf "R%d" i) "a"))
             acc
             (Rel.ret cat (Printf.sprintf "R%d" i)))
          (i + 1)
    in
    go (Rel.ret cat "R1") 2
  in
  Printf.printf "  %6s  %12s  %10s\n" "joins" "Prairie(ms)" "groups";
  let max_joins = if !full then 7 else 5 in
  for joins = 1 to max_joins do
    let total = ref 0.0 and groups = ref 0 in
    List.iter
      (fun seed ->
        let cat = build_catalog (joins + 1) seed in
        let q = build_query cat (joins + 1) in
        let opt = Opt.relational cat in
        total := !total +. S.time_ms (fun () -> ignore (Opt.optimize opt q));
        groups := Search.group_count (Opt.optimize opt q).Opt.search)
      S.seeds;
    let avg_ms = !total /. float_of_int (List.length S.seeds) in
    S.record_row
      [
        ("section", S.Json.Str "relational");
        ("joins", S.Json.Int joins);
        ("prairie_ms", S.Json.Float avg_ms);
        ("groups", S.Json.Int !groups);
      ];
    Printf.printf "  %6d  %12.3f  %10d\n" joins avg_ms !groups
  done;
  let cat = build_catalog 3 1 in
  let rs = Rel.ruleset cat in
  let report = P2v.Report.of_translation (P2v.Translate.translate rs) in
  Printf.printf
    "\n  Specification size: %d units in Prairie vs %d units of equivalent\n\
    \  hand-coded Volcano (rules + statements + per-rule support functions).\n\
    \  The workshop paper [5] reported about 50%% fewer lines of code.\n"
    report.P2v.Report.prairie_spec_size report.P2v.Report.volcano_spec_size

(* ------------------------------------------------------------------ *)
(* Star query graphs (the paper's stated future work)                  *)
(* ------------------------------------------------------------------ *)

let star () =
  S.header "Star query graphs (paper Sec. 4.3 future work): linear vs star";
  Printf.printf "  %6s  %14s %10s  %14s %10s\n" "joins" "linear(ms)"
    "lin.groups" "star(ms)" "star.groups";
  let max_joins = if !full then 6 else 5 in
  for joins = 1 to max_joins do
    let spec = W.Catalogs.default_spec ~classes:(joins + 1) ~indexed:false ~seed:101 in
    let lin_cat = W.Catalogs.make spec in
    let lin_q = W.Expressions.e1 lin_cat ~joins in
    let star_spec = { spec with W.Catalogs.classes = joins } in
    let star_cat = W.Catalogs.make_star star_spec in
    let star_q = W.Expressions.star star_cat ~joins in
    let run cat q =
      let opt = Opt.oodb_prairie cat in
      let t = S.time_ms (fun () -> ignore (Opt.optimize opt q)) in
      let r = Opt.optimize opt q in
      (t, Search.group_count r.Opt.search)
    in
    let lt, lg = run lin_cat lin_q in
    let st, sg = run star_cat star_q in
    S.record_row
      [
        ("section", S.Json.Str "star");
        ("joins", S.Json.Int joins);
        ("linear_ms", S.Json.Float lt);
        ("linear_groups", S.Json.Int lg);
        ("star_ms", S.Json.Float st);
        ("star_groups", S.Json.Int sg);
      ];
    Printf.printf "  %6d  %14.3f %10d  %14.3f %10d\n" joins lt lg st sg
  done;
  Printf.printf
    "  Every star-join predicate references the hub, so bushy\n\
    \  re-associations that detach a satellite from the hub are cross\n\
    \  products and get rejected by the associativity tests.  Group counts\n\
    \  stay comparable (any hub-containing subset is joinable) but far\n\
    \  fewer transformations fire, so star optimization is markedly faster\n\
    \  at equal join counts.\n"

(* ------------------------------------------------------------------ *)
(* Search strategies: top-down Volcano vs bottom-up System R           *)
(* ------------------------------------------------------------------ *)

let strategies () =
  S.header "Search strategies: top-down (Volcano) vs bottom-up (System R)";
  Printf.printf "  %-5s %6s %14s %14s %12s %12s %10s\n" "query" "joins"
    "top-down(ms)" "bottom-up(ms)" "td costed" "bu costed" "same cost?";
  List.iter
    (fun (q, joins) ->
      let inst = W.Queries.instance q ~joins ~seed:101 in
      let opt = Opt.oodb_prairie inst.W.Queries.catalog in
      let expr, required = opt.Opt.prepare inst.W.Queries.expr in
      let t_td = S.time_ms (fun () -> ignore (Opt.optimize opt inst.W.Queries.expr)) in
      let t_bu =
        S.time_ms (fun () ->
            ignore (Prairie_volcano.Bottom_up.optimize ~required opt.Opt.volcano expr))
      in
      let td = Opt.optimize opt inst.W.Queries.expr in
      let bu = Prairie_volcano.Bottom_up.optimize ~required opt.Opt.volcano expr in
      let bu_cost =
        match bu.Prairie_volcano.Bottom_up.plan with
        | Some p -> Prairie_volcano.Plan.cost p
        | None -> infinity
      in
      S.record_row
        [
          ("section", S.Json.Str "strategies");
          ("query", S.Json.Str (W.Queries.name q));
          ("joins", S.Json.Int joins);
          ("topdown_ms", S.Json.Float t_td);
          ("bottomup_ms", S.Json.Float t_bu);
          ("td_costed", S.Json.Int (Search.stats td.Opt.search).Stats.impl_firings);
          ("bu_costed", S.Json.Int bu.Prairie_volcano.Bottom_up.plans_costed);
          ("cost", S.Json.Float td.Opt.cost);
          ( "same_cost",
            S.Json.Str
              (if Float.abs (td.Opt.cost -. bu_cost) < 1e-6 then "yes" else "no")
          );
        ];
      Printf.printf "  %-5s %6d %14.3f %14.3f %12d %12d %10s\n"
        (W.Queries.name q) joins t_td t_bu
        (Search.stats td.Opt.search).Stats.impl_firings
        bu.Prairie_volcano.Bottom_up.plans_costed
        (if Float.abs (td.Opt.cost -. bu_cost) < 1e-6 then "yes" else "NO!"))
    [ (W.Queries.Q1, 3); (W.Queries.Q3, 2); (W.Queries.Q5, 2); (W.Queries.Q7, 2) ];
  Printf.printf
    "  Both strategies run over the same memo and rules and must agree on\n\
    \  cost; the bottom-up engine is exhaustive (all interesting orders of\n\
    \  all groups) where the top-down engine is demand-driven and bounded.\n"

(* ------------------------------------------------------------------ *)
(* Distributed algebra (R*-style; second physical property)            *)
(* ------------------------------------------------------------------ *)

let distributed () =
  S.header "Distributed rule set: shipping decisions (site as a physical property)";
  let module Dist = Prairie_algebra.Distributed in
  let module A = Prairie_value.Attribute in
  let module P = Prairie_value.Predicate in
  let attr o n = A.make ~owner:o ~name:n in
  let eq a b = P.Cmp (P.Eq, P.T_attr a, P.T_attr b) in
  let catalog =
    Prairie_catalog.Catalog.of_files
      [
        Rel.relation ~name:"R1" ~cardinality:50_000 ~tuple_size:100 [ ("a", 100) ];
        Rel.relation ~name:"R2" ~cardinality:2_000 ~tuple_size:100 [ ("a", 100) ];
        Rel.relation ~name:"R3" ~cardinality:500 ~tuple_size:100 [ ("a", 100) ];
      ]
  in
  let sites = [ ("R1", "paris"); ("R2", "austin"); ("R3", "austin") ] in
  let rs = Dist.ruleset catalog in
  let tr = P2v.Translate.translate rs in
  Format.printf "%a@.@." P2v.Report.pp (P2v.Report.of_translation tr);
  let opt =
    {
      Opt.name = "distributed";
      volcano = tr.P2v.Translate.volcano;
      prepare = P2v.Translate.prepare_query tr;
    }
  in
  let q =
    Dist.join catalog
      ~pred:(eq (attr "R2" "a") (attr "R3" "a"))
      (Dist.join catalog
         ~pred:(eq (attr "R1" "a") (attr "R2" "a"))
         (Dist.ret ~sites catalog "R1")
         (Dist.ret ~sites catalog "R2"))
      (Dist.ret ~sites catalog "R3")
  in
  List.iter
    (fun (label, required) ->
      let r = Opt.optimize ~required opt q in
      match r.Opt.plan with
      | Some p ->
        Format.printf "  result at %-9s cost %10.2f  plan %a@." label r.Opt.cost
          Prairie_volcano.Plan.pp p
      | None -> Format.printf "  result at %-9s no plan@." label)
    [
      ("anywhere", Prairie.Descriptor.empty);
      ("paris", Dist.require_site "paris");
      ("austin", Dist.require_site "austin");
      ("tokyo", Dist.require_site "tokyo");
    ]

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let ablations () =
  S.header "Ablations (design choices of DESIGN.md)";
  (* 1: branch-and-bound *)
  S.subheader "ablation-bounding: branch-and-bound cost limits on/off";
  Printf.printf "  %-5s %14s %14s %12s %12s\n" "query" "pruned(ms)" "full(ms)"
    "prune events" "same cost?";
  List.iter
    (fun (q, joins) ->
      let inst = W.Queries.instance q ~joins ~seed:101 in
      let cat = inst.W.Queries.catalog in
      let opt = Opt.oodb_prairie cat in
      let t_on = S.time_ms (fun () -> ignore (Opt.optimize ~pruning:true opt inst.W.Queries.expr)) in
      let t_off = S.time_ms (fun () -> ignore (Opt.optimize ~pruning:false opt inst.W.Queries.expr)) in
      let r_on = Opt.optimize ~pruning:true opt inst.W.Queries.expr in
      let r_off = Opt.optimize ~pruning:false opt inst.W.Queries.expr in
      Printf.printf "  %-5s %14.3f %14.3f %12d %12s\n" (W.Queries.name q) t_on
        t_off
        (Search.stats r_on.Opt.search).Stats.pruned
        (if Float.abs (r_on.Opt.cost -. r_off.Opt.cost) < 1e-6 then "yes" else "NO!"))
    [ (W.Queries.Q1, 3); (W.Queries.Q5, 2); (W.Queries.Q7, 2) ];
  (* 2: the group-budget heuristic (the paper's closing advice) *)
  S.subheader
    "ablation-budget: capped exploration (graceful degradation) on E4";
  Printf.printf "  %-10s %14s %10s %12s\n" "budget" "time(ms)" "groups" "cost";
  (let inst = W.Queries.instance W.Queries.Q7 ~joins:2 ~seed:101 in
   let opt = Opt.oodb_prairie inst.W.Queries.catalog in
   List.iter
     (fun budget ->
       let t =
         S.time_ms (fun () ->
             ignore (Opt.optimize ?group_budget:budget opt inst.W.Queries.expr))
       in
       let r = Opt.optimize ?group_budget:budget opt inst.W.Queries.expr in
       Printf.printf "  %-10s %14.3f %10d %12.3f\n"
         (match budget with None -> "unlimited" | Some b -> string_of_int b)
         t
         (Search.group_count r.Opt.search)
         r.Opt.cost)
     [ Some 30; Some 60; Some 120; None ]);
  (* 3: memoized exploration *)
  S.subheader "ablation-memo: duplicate detection rates during exploration";
  Printf.printf "  %-5s %10s %10s %12s %10s\n" "query" "lexprs" "dups"
    "dedup rate" "merges";
  List.iter
    (fun (q, joins) ->
      let inst = W.Queries.instance q ~joins ~seed:101 in
      let r = Opt.optimize (Opt.oodb_prairie inst.W.Queries.catalog) inst.W.Queries.expr in
      let st = Search.stats r.Opt.search in
      Printf.printf "  %-5s %10d %10d %11.1f%% %10d\n" (W.Queries.name q)
        st.Stats.lexprs_created st.Stats.lexpr_duplicates
        (100.0
        *. float_of_int st.Stats.lexpr_duplicates
        /. float_of_int (max 1 (st.Stats.lexprs_created + st.Stats.lexpr_duplicates)))
        st.Stats.groups_merged)
    [ (W.Queries.Q1, 3); (W.Queries.Q3, 3); (W.Queries.Q7, 2) ]

(* ------------------------------------------------------------------ *)
(* The parallel plan service: domain pool + shared plan cache          *)
(* ------------------------------------------------------------------ *)

let service () =
  S.header
    "Plan service: domain-pool batches with a shared fingerprint-keyed cache";
  let jobs = 4 in
  let cat =
    W.Catalogs.make (W.Catalogs.default_spec ~classes:4 ~indexed:true ~seed:101)
  in
  let opt = Opt.oodb_prairie cat in
  (* the workload-generator query mix: every family at several join counts *)
  let distinct =
    List.concat_map
      (fun (f, join_counts) ->
        List.map
          (fun joins -> Opt.request (W.Expressions.build f cat ~joins))
          join_counts)
      [
        (W.Expressions.E1, [ 1; 2; 3 ]);
        (W.Expressions.E2, [ 1; 2; 3 ]);
        (W.Expressions.E3, [ 1; 2 ]);
        (W.Expressions.E4, [ 1; 2 ]);
      ]
  in
  let repeats = if !full then 16 else 8 in
  let mix = List.concat (List.init repeats (fun _ -> distinct)) in
  Printf.printf
    "  query mix: %d requests (%d distinct x%d), jobs = %d, cores = %d\n"
    (List.length mix) (List.length distinct) repeats jobs
    (Domain.recommended_domain_count ());
  let digest_of served =
    match served.Opt.plan with
    | Some p -> Prairie.Expr.fingerprint (Prairie_volcano.Plan.to_expr p)
    | None -> "-"
  in
  (* 1. the pre-existing sequential path: one full search per request *)
  let baseline = ref [] in
  let t_loop =
    S.time_once (fun () ->
        baseline := List.map (fun r -> Opt.optimize opt r.Opt.expr) mix)
  in
  (* 2. batched, sequential: within-batch fingerprint dedup only *)
  let t_seq =
    S.time_once (fun () -> ignore (Opt.serve ~jobs:1 ?metrics:!metrics opt mix))
  in
  (* 3. batched, domain pool *)
  let t_par =
    S.time_once (fun () -> ignore (Opt.serve ~jobs ?metrics:!metrics opt mix))
  in
  (* 4. cold then warm shared cache *)
  let cache = Opt.Plan_cache.create ~capacity:256 () in
  let cold = ref [] in
  let t_cold =
    S.time_once (fun () -> cold := Opt.serve ~jobs ~cache ?metrics:!metrics opt mix)
  in
  let s_cold = Opt.Plan_cache.stats cache in
  let warm = ref [] in
  let t_warm =
    S.time_once (fun () -> warm := Opt.serve ~jobs ~cache ?metrics:!metrics opt mix)
  in
  let s_warm = Opt.Plan_cache.stats cache in
  Printf.printf "  %-34s %10s %9s\n" "configuration" "time(ms)" "speedup";
  List.iter
    (fun (label, t) ->
      Printf.printf "  %-34s %10.1f %8.1fx\n" label (t *. 1000.0) (t_loop /. t))
    [
      ("sequential loop (Opt.optimize)", t_loop);
      ("serve --jobs 1 (batch dedup)", t_seq);
      (Printf.sprintf "serve --jobs %d" jobs, t_par);
      (Printf.sprintf "serve --jobs %d, cold cache" jobs, t_cold);
      (Printf.sprintf "serve --jobs %d, warm cache" jobs, t_warm);
    ];
  Format.printf "  cache: %a@." Opt.Plan_cache.pp_stats cache;
  let warm_lookups =
    s_warm.Opt.Plan_cache.hits + s_warm.Opt.Plan_cache.misses
    - (s_cold.Opt.Plan_cache.hits + s_cold.Opt.Plan_cache.misses)
  in
  let warm_hits =
    List.length (List.filter (fun s -> s.Opt.cache_hit) !warm)
  in
  Printf.printf
    "  warm pass: %d/%d requests served from cache (hit-rate %.1f%%)\n"
    warm_hits (List.length !warm)
    (100.0
    *. float_of_int (s_warm.Opt.Plan_cache.hits - s_cold.Opt.Plan_cache.hits)
    /. float_of_int (max 1 warm_lookups));
  (* the cached plans must be byte-identical to cold optimization *)
  let identical =
    List.for_all2
      (fun (b : Opt.outcome) (w : Opt.served) ->
        Float.equal b.Opt.cost w.Opt.cost
        && String.equal
             (match b.Opt.plan with
             | Some p -> Prairie.Expr.fingerprint (Prairie_volcano.Plan.to_expr p)
             | None -> "-")
             (digest_of w))
      !baseline !warm
  in
  Printf.printf "  warm plans byte-identical to cold optimization: %s\n"
    (if identical then "yes" else "NO!");
  (* pure pool scaling on distinct queries (no dedup, no cache): bounded
     above by the available cores — on a single-core host the domain pool
     can only add coordination overhead, and the cache/dedup numbers above
     are the ones that matter *)
  S.subheader
    (Printf.sprintf "pool scaling on the distinct-query batch (%d cores)"
       (Domain.recommended_domain_count ()));
  let reps = if !full then 6 else 2 in
  let batch = List.init reps (fun _ -> ()) in
  Printf.printf "  %6s %10s %9s\n" "jobs" "time(ms)" "speedup";
  let time_at jobs =
    S.time_once (fun () ->
        List.iter (fun () -> ignore (Opt.serve ~jobs opt distinct)) batch)
  in
  let t1 = time_at 1 in
  List.iter
    (fun j ->
      let t = if j = 1 then t1 else time_at j in
      Printf.printf "  %6d %10.1f %8.2fx\n" j (t *. 1000.0) (t1 /. t))
    [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Observability: the cost of the span-sink instrumentation           *)
(* ------------------------------------------------------------------ *)

let obs () =
  S.header "Observability: span sink overhead (sink off vs on)";
  let inst = W.Queries.instance W.Queries.Q5 ~joins:2 ~seed:101 in
  let opt = Opt.oodb_prairie inst.W.Queries.catalog in
  let expr = inst.W.Queries.expr in
  (* best-of-N: the disabled path is one Option check per event site, so
     the signal is small and easily drowned by scheduler noise *)
  let rounds = if !full then 9 else 5 in
  let best f =
    let b = ref infinity in
    for _ = 1 to rounds do
      let t = S.time_ms f in
      if t < !b then b := t
    done;
    !b
  in
  let t_off = best (fun () -> ignore (Opt.optimize opt expr)) in
  let t_spans =
    best (fun () ->
        let sink = Obs.Span.create () in
        ignore (Opt.optimize ~spans:sink opt expr))
  in
  let over t = (t /. Float.max 1e-9 t_off -. 1.0) *. 100.0 in
  Printf.printf "  query Q5, 2 joins, best of %d timing rounds\n" rounds;
  Printf.printf "  %-26s %12s %10s\n" "configuration" "time(ms)" "overhead";
  List.iter
    (fun (label, t) ->
      S.record_row
        [
          ("section", S.Json.Str "obs");
          ("name", S.Json.Str label);
          ("time_obs_ms", S.Json.Float t);
        ];
      Printf.printf "  %-26s %12.4f %+9.2f%%\n" label t (over t))
    [ ("sinks disabled", t_off); ("span sink", t_spans) ];
  (* the sink must be an observer: same plan, same cost, and the event
     stream accounts for the search the optimizer actually ran *)
  let plain = Opt.optimize opt expr in
  let sink = Obs.Span.create () in
  let traced = Opt.optimize ~spans:sink opt expr in
  Printf.printf "  traced cost identical to untraced: %s (%.3f)\n"
    (if Float.equal plain.Opt.cost traced.Opt.cost then "yes" else "NO!")
    traced.Opt.cost;
  Printf.printf
    "  recorded per optimization: %d events, %d spans (%d dropped)\n"
    (Obs.Span.event_count sink) (Obs.Span.span_count sink)
    (Obs.Span.dropped sink);
  Printf.printf
    "  The disabled path costs one Option check per instrumented site;\n\
    \  enabling a sink pays for span/event construction, a clock read and\n\
    \  the ring-buffer write.\n"

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per table/figure           *)
(* ------------------------------------------------------------------ *)

let bechamel () =
  S.header "Bechamel micro-benchmarks (one per table/figure)";
  let open Bechamel in
  let optimize_test name q joins which =
    Test.make ~name
      (Staged.stage (fun () ->
           let inst = W.Queries.instance q ~joins ~seed:101 in
           let opt = which inst.W.Queries.catalog in
           ignore (Opt.optimize opt inst.W.Queries.expr)))
  in
  let tests =
    [
      optimize_test "table5/Q5-rule-matching" W.Queries.Q5 2 Opt.oodb_prairie;
      optimize_test "fig10/Q1-prairie" W.Queries.Q1 3 Opt.oodb_prairie;
      optimize_test "fig10/Q1-volcano" W.Queries.Q1 3 Opt.oodb_volcano;
      optimize_test "fig11/Q3-prairie" W.Queries.Q3 2 Opt.oodb_prairie;
      optimize_test "fig11/Q3-volcano" W.Queries.Q3 2 Opt.oodb_volcano;
      optimize_test "fig12/Q6-prairie" W.Queries.Q6 2 Opt.oodb_prairie;
      optimize_test "fig13/Q7-prairie" W.Queries.Q7 2 Opt.oodb_prairie;
      optimize_test "fig14/Q7-group-growth" W.Queries.Q7 2 Opt.oodb_prairie;
      Test.make ~name:"rules/p2v-translation"
        (Staged.stage (fun () ->
             let cat = W.Catalogs.make (W.Catalogs.default_spec ~classes:2 ~indexed:true ~seed:1) in
             ignore (P2v.Translate.translate (Prairie_algebra.Oodb.ruleset cat))));
    ]
  in
  let benchmark test =
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None () in
    Benchmark.all cfg instances test
  in
  let analyze results =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:false
        ~predictors:[| Measure.run |]
    in
    Analyze.all ols Toolkit.Instance.monotonic_clock results
  in
  Printf.printf "  %-28s %16s\n" "benchmark" "time/run";
  List.iter
    (fun test ->
      let results = analyze (benchmark test) in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] ->
            let ns = est in
            if ns > 1e6 then Printf.printf "  %-28s %13.3f ms\n" name (ns /. 1e6)
            else Printf.printf "  %-28s %13.1f ns\n" name ns
          | _ -> Printf.printf "  %-28s %16s\n" name "n/a")
        results)
    tests

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let sections =
  [
    ("table1", table1);
    ("table2", table2);
    ("table34", table34);
    ("table5", table5);
    ("fig10", fig10);
    ("fig11", fig11);
    ("fig12", fig12);
    ("fig13", fig13);
    ("fig14", fig14);
    ("rules", rules);
    ("relational", relational);
    ("star", star);
    ("strategies", strategies);
    ("distributed", distributed);
    ("ablations", ablations);
    ("service", service);
    ("obs", obs);
    ("bechamel", bechamel);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let args = List.filter (fun a -> a <> "--") args in
  (* --metrics FILE: collect service telemetry into a registry and dump
     it as Prometheus text after the run ("-" for stdout) *)
  let rec strip_metrics acc = function
    | [] -> (None, List.rev acc)
    | [ "--metrics" ] ->
      prerr_endline "--metrics requires a FILE argument (\"-\" for stdout)";
      exit 2
    | "--metrics" :: file :: rest -> (Some file, List.rev_append acc rest)
    | a :: rest -> strip_metrics (a :: acc) rest
  in
  let metrics_file, args = strip_metrics [] args in
  if metrics_file <> None then metrics := Some (Obs.Metrics.create ());
  (* --json FILE: machine-readable per-section results (see Support.Json) *)
  let rec strip_json acc = function
    | [] -> (None, List.rev acc)
    | [ "--json" ] ->
      prerr_endline "--json requires a FILE argument";
      exit 2
    | "--json" :: file :: rest -> (Some file, List.rev_append acc rest)
    | a :: rest -> strip_json (a :: acc) rest
  in
  let json_file, args = strip_json [] args in
  (* --check BASELINE [--tolerance T]: compare this run's deterministic
     fields against a previous --json dump (v1 or v2) and exit 1 on any
     relative deviation beyond T (default 0.25 — generous, because costs
     can wiggle with catalog randomization tweaks) *)
  let rec strip_opt name acc = function
    | [] -> (None, List.rev acc)
    | [ n ] when n = name ->
      Printf.eprintf "%s requires an argument\n" name;
      exit 2
    | n :: v :: rest when n = name -> (Some v, List.rev_append acc rest)
    | a :: rest -> strip_opt name (a :: acc) rest
  in
  let check_file, args = strip_opt "--check" [] args in
  let tolerance_s, args = strip_opt "--tolerance" [] args in
  let tolerance =
    match tolerance_s with
    | None -> 0.25
    | Some s -> (
      match float_of_string_opt s with
      | Some t when t >= 0.0 -> t
      | _ ->
        Printf.eprintf "--tolerance must be a non-negative number, got %S\n" s;
        exit 2)
  in
  let full_flag, named = List.partition (fun a -> a = "--full") args in
  full := full_flag <> [];
  let to_run =
    match named with
    | [] -> sections
    | names ->
      List.filter_map
        (fun n ->
          match List.assoc_opt n sections with
          | Some f -> Some (n, f)
          | None ->
            Printf.eprintf "unknown section %S (have: %s)\n" n
              (String.concat ", " (List.map fst sections));
            exit 2)
        names
  in
  Printf.printf "Prairie reproduction benchmarks%s\n"
    (if !full then " (full sweeps)" else "");
  List.iter
    (fun (name, f) ->
      let wall = S.time_once f in
      S.record_wall ~name ~wall_ms:(wall *. 1000.0))
    to_run;
  (match json_file with
  | Some file ->
    S.write_json file ~full:!full ~sections:(List.map fst to_run);
    Printf.printf "\njson results written to %s\n" file
  | None -> ());
  (match check_file with
  | None -> ()
  | Some file -> (
    match S.check_against ~file ~tolerance with
    | exception (Failure msg | Sys_error msg) ->
      Printf.eprintf "--check: %s\n" msg;
      exit 2
    | baseline, [] ->
      Printf.printf
        "\n--check %s (%s): all deterministic fields within %.0f%%\n" file
        baseline.S.b_schema (tolerance *. 100.0)
    | baseline, errors ->
      Printf.printf "\n--check %s (%s): %d mismatch(es)\n" file
        baseline.S.b_schema (List.length errors);
      List.iter (fun e -> Printf.printf "  %s\n" e) errors;
      exit 1));
  match (metrics_file, !metrics) with
  | Some "-", Some m -> Obs.Metrics.output stdout `Prometheus m
  | Some file, Some m ->
    let oc = open_out file in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> Obs.Metrics.output oc `Prometheus m);
    Printf.printf "\nmetrics written to %s\n" file
  | _ -> ()
