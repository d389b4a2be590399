(* The benchmark harness: regenerates the tables and figures of the paper's
   evaluation (§4).  Run with no arguments for everything, or name sections:

     dune exec bench/main.exe -- table5 fig10 fig14
     dune exec bench/main.exe -- --full      (wider sweeps)

   Sections: table1 table2 table34 table5 fig10 fig11 fig12 fig13 fig14
             rules

   The printed counts and costs of table5 and fig10-fig14 are pinned
   exactly by the test suite (oodb.paper_rows); the timings are what this
   harness adds. *)

module W = Prairie_workload
module Opt = Prairie_optimizers.Optimizers
module Search = Prairie_volcano.Search
module Stats = Prairie_volcano.Stats
module P2v = Prairie_p2v
module S = Support

let full = ref false

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
  let names decls = String.concat ", " (List.map fst decls) in
  Printf.printf "  operators:  %s\n" (names rs.Prairie.Ruleset.operators);
  Printf.printf "  algorithms: %s\n" (names rs.Prairie.Ruleset.algorithms)

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
  Printf.printf "  %-22s %-11s %s\n" "Property" "Type" "Description";
  List.iter
    (fun (prop : Prairie.Property.t) ->
      Printf.printf "  %-22s %-11s %s\n" prop.Prairie.Property.name
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
  Printf.printf "  %-28s %s\n" "Prairie" "Volcano";
  Printf.printf "  %-28s %s\n" "operator" "operator";
  Printf.printf "  %-28s %s\n" "algorithm" "algorithm";
  List.iter
    (fun (i : P2v.Enforcers.info) ->
      Printf.printf "  enforcer-operator %-10s (deleted)\n" i.P2v.Enforcers.operator;
      List.iter
        (fun r ->
          Printf.printf "  enforcer-algorithm %-9s enforcer\n"
            (Prairie.Irule.algorithm r))
        i.P2v.Enforcers.algorithm_rules;
      Printf.printf "  %-28s %s\n" "Null algorithm" "(deleted)")
    enf;
  Printf.printf "  %-28s %s\n" "operator tree" "logical expression (memo lexprs)";
  Printf.printf "  %-28s %s\n" "access plan" "physical expression (Plan.t)";
  Printf.printf "  descriptor split:\n";
  Printf.printf "    cost properties          -> cost: %s\n"
    (String.concat ", " c.P2v.Classify.cost);
  Printf.printf "    physical properties      -> physical property vector: %s\n"
    (String.concat ", " c.P2v.Classify.physical);
  Printf.printf "    remaining properties     -> operator/algorithm argument (%d)\n"
    (List.length c.P2v.Classify.argument);
  Printf.printf "\n  rule translation (Table 4):\n";
  Printf.printf "    %d T-rules  -> %d trans_rules (pre-test+test -> cond_code, post-test -> appl_code)\n"
    (Prairie.Ruleset.trule_count rs)
    (P2v.Merge.trans_rule_count m);
  Printf.printf "    %d I-rules  -> %d impl_rules (test -> cond_code, pre-opt -> do_any_good/get_input_pv,\n"
    (Prairie.Ruleset.irule_count rs)
    (P2v.Merge.impl_rule_count m);
  Printf.printf "                  %24s post-opt -> derive_phy_prop/cost) + %d enforcers\n" ""
    (P2v.Merge.enforcer_count m);
  List.iter
    (fun (t, i) -> Printf.printf "    composed: %s + %s\n" t i)
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

let figure name (qa, qb) ~max_joins ~budget_s () =
  S.header
    (Printf.sprintf
       "%s: per-query optimization time, Prairie (P2V) vs hand-coded Volcano"
       name);
  Printf.printf
    "  times: mean over catalogs %s of the best of %d runs each;\n\
    \  groups and cost: catalog %d\n"
    (String.concat ", " (List.map string_of_int S.seeds))
    S.runs S.counts_seed;
  let max_joins = if !full then max_joins + 2 else max_joins in
  S.print_points (W.Queries.name qa) (S.sweep qa ~max_joins ~budget_s);
  S.print_points (W.Queries.name qb) (S.sweep qb ~max_joins ~budget_s);
  Printf.printf
    "  Paper's shape: both optimizers within a few percent of each other;\n\
    \  super-exponential growth with the number of joins.\n"

let fig10 = figure "Figure 10 (E1: joins of base classes)" (W.Queries.Q1, W.Queries.Q2) ~max_joins:6 ~budget_s:5.0
let fig11 = figure "Figure 11 (E2: MATerialize before join)" (W.Queries.Q3, W.Queries.Q4) ~max_joins:4 ~budget_s:5.0
let fig12 = figure "Figure 12 (E3: SELECT over E1)" (W.Queries.Q5, W.Queries.Q6) ~max_joins:3 ~budget_s:8.0
let fig13 = figure "Figure 13 (E4: SELECT over E2)" (W.Queries.Q7, W.Queries.Q8) ~max_joins:3 ~budget_s:8.0

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
    [ Prairie_algebra.Oodb.ruleset cat; Prairie_algebra.Relational.ruleset cat ];
  Printf.printf
    "  Paper: 22 T-rules + 11 I-rules -> 17 trans_rules + 9 impl_rules for\n\
    \  the Open OODB rule set; the larger Prairie rule count is the price of\n\
    \  making enforcers explicit, recovered automatically by merging.\n"

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
  ]

let () =
  let args = List.filter (fun a -> a <> "--") (List.tl (Array.to_list Sys.argv)) in
  let full_flag, named = List.partition (fun a -> a = "--full") args in
  full := full_flag <> [];
  let to_run =
    match named with
    | [] -> sections
    | names ->
      List.map
        (fun n ->
          match List.assoc_opt n sections with
          | Some f -> (n, f)
          | None ->
            Printf.eprintf "unknown section %S (have: %s)\n" n
              (String.concat ", " (List.map fst sections));
            exit 2)
        names
  in
  Printf.printf "Prairie reproduction benchmarks%s\n"
    (if !full then " (full sweeps)" else "");
  List.iter (fun (_, f) -> f ()) to_run
