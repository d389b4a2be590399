(* The compile workload: the rule author's loop.  Both shipped rule files
   go from text to a Volcano rule set (parse, elaborate, P2V translate)
   and through the linter and the analyzer.  No search runs. *)

module W = Prairie_workload
module Opt = Prairie_optimizers.Optimizers
module Dsl = Prairie_dsl
module P2v = Prairie_p2v
module Lint = Prairie_lint.Lint
module Analysis = Prairie_analysis.Analysis
module Rule = Prairie_volcano.Rule
open Measure

let files = [ "rules/open_oodb.prairie"; "rules/relational.prairie" ]

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

type compiled = {
  translation : P2v.Translate.t;
  lint_errors : int;
  analysis_errors : int;
}

let errors diags =
  let e, _, _ = Lint.summary diags in
  e

(* One file, text to checked Volcano rule set: the timed operation runs
   this over both files. *)
let compile_one ~helpers text =
  let spec = Dsl.Parser.parse text in
  let rs = Dsl.Elaborate.elaborate ~helpers spec in
  let translation = P2v.Translate.translate rs in
  let lint = Lint.check_spec ~helpers spec in
  let analysis = Analysis.check_spec spec in
  {
    translation;
    lint_errors = errors lint;
    analysis_errors = errors analysis.Analysis.diagnostics;
  }

let rule_counts c =
  let v = c.translation.P2v.Translate.volcano in
  (List.length v.Rule.rs_trans, List.length v.Rule.rs_impl, List.length v.Rule.rs_enforcers)

(* Per pass over both files: each layer's public entry point timed on its
   own.  [Parser.parse] lexes internally, so the parse figure is the parse
   call minus the separate [Lexer.tokenize] call; [Translate.translate]
   runs enforcer detection, merging and classification again on its way
   to code generation, so [p2v.translate_ms] contains the three figures
   before it. *)
let traced_pass ~helpers texts ~passes =
  let stages =
    [|
      "ruledsl.lex_ms"; "ruledsl.parse_ms"; "ruledsl.elaborate_ms"; "p2v.enforcers_ms";
      "p2v.merge_ms"; "p2v.classify_ms"; "p2v.translate_ms"; "lint.check_ms";
      "analysis.check_ms";
    |]
  in
  let per_pass = Array.map (fun _ -> Samples.create ()) stages in
  let traced = Samples.create () and untraced = Samples.create () in
  let trans = ref 0 and impl = ref 0 in
  for pass = 1 to passes do
    let acc = Array.make (Array.length stages) 0.0 in
    let add i ms = acc.(i) <- acc.(i) +. ms in
    List.iter
      (fun text ->
        let _, lex = time_ms (fun () -> Dsl.Lexer.tokenize text) in
        let spec, parse = time_ms (fun () -> Dsl.Parser.parse text) in
        add 0 lex;
        add 1 (parse -. lex);
        let rs, ms = time_ms (fun () -> Dsl.Elaborate.elaborate ~helpers spec) in
        add 2 ms;
        add 3 (snd (time_ms (fun () -> P2v.Enforcers.detect rs)));
        add 4 (snd (time_ms (fun () -> P2v.Merge.merge rs)));
        add 5 (snd (time_ms (fun () -> P2v.Classify.classify rs)));
        let tr, ms = time_ms (fun () -> P2v.Translate.translate rs) in
        add 6 ms;
        add 7 (snd (time_ms (fun () -> Lint.check_spec ~helpers spec)));
        add 8 (snd (time_ms (fun () -> Analysis.check_spec spec)));
        if pass = 1 then begin
          let v = tr.P2v.Translate.volcano in
          trans := !trans + List.length v.Rule.rs_trans;
          impl := !impl + List.length v.Rule.rs_impl
        end)
      texts;
    Array.iteri (fun i ms -> Samples.add per_pass.(i) ms) acc;
    (* the stages the timed operation runs, against one untimed-inside run *)
    Samples.add traced (acc.(0) +. acc.(1) +. acc.(2) +. acc.(6) +. acc.(7) +. acc.(8));
    Samples.add untraced
      (snd (time_ms (fun () -> List.iter (fun t -> ignore (compile_one ~helpers t)) texts)))
  done;
  Array.to_list
    (Array.mapi (fun i name -> (name, median (Samples.to_array per_pass.(i)))) stages)
  @ [
      ("p2v.trans_rules", float_of_int !trans);
      ("p2v.impl_rules", float_of_int !impl);
      ( "obs.trace_overhead_pct",
        100.0
        *. ((median (Samples.to_array traced) /. median (Samples.to_array untraced)) -. 1.0)
      );
    ]

(* The probes' catalogs: paper-figs' fixed ones.  On some seed-drawn
   catalogs (29, 31 and 35 among seeds 1-40) the compiled rule file finds
   a Q3/Q4 2-join plan 0.15 cheaper than the embedded rule set does, so
   the two are not equivalent everywhere; see README.md. *)
let probe_catalogs = [ 101; 202; 303; 404; 505 ]

(* The compiled OODB rule file must optimize like the embedded rule set it
   transcribes: same rule counts, same costs on Table 5 probes. *)
let check ~first ~last spec_oodb =
  let c = Workload.tally () in
  let expect ok = Workload.expect c ok in
  List.iter2
    (fun path (a, b) ->
      expect (rule_counts a = rule_counts b) "%s: rule counts changed between passes" path;
      expect (a.lint_errors = 0) "%s: %d lint errors" path a.lint_errors;
      expect (a.analysis_errors = 0) "%s: %d analysis errors" path a.analysis_errors)
    files (List.combine first last);
  let probes = ref 0 in
  List.iter
    (fun (query, joins, seed) ->
      incr probes;
      let q = W.Queries.instance query ~joins ~seed in
      let cat = q.W.Queries.catalog in
      let embedded = Opt.oodb_prairie cat in
      let tr =
        P2v.Translate.translate
          (Dsl.Elaborate.elaborate ~helpers:(Prairie_algebra.Helpers.env cat) spec_oodb)
      in
      let from_text =
        {
          Opt.name = "oodb-text";
          volcano = tr.P2v.Translate.volcano;
          prepare = P2v.Translate.prepare_query tr;
        }
      in
      let count (v : Rule.ruleset) = (List.length v.Rule.rs_trans, List.length v.Rule.rs_impl) in
      expect
        (count embedded.Opt.volcano = count from_text.Opt.volcano)
        "%s/%d joins/catalog %d: text and embedded OODB rule sets differ in size"
        (W.Queries.name query) joins seed;
      let a = Opt.optimize ~search_jobs:1 embedded q.W.Queries.expr in
      let b = Opt.optimize ~search_jobs:1 from_text q.W.Queries.expr in
      expect
        (Workload.same_cost a.Opt.cost b.Opt.cost)
        "%s/%d joins/catalog %d: compiled rule file costs %.6f, embedded rule set %.6f"
        (W.Queries.name query) joins seed b.Opt.cost a.Opt.cost)
    (List.concat_map
       (fun query ->
         List.concat_map
           (fun joins -> List.map (fun seed -> (query, joins, seed)) probe_catalogs)
           [ 1; 2 ])
       W.Queries.all);
  {
    Workload.checked = c.Workload.count;
    mismatches = List.rev c.Workload.failures;
    notes =
      [
        "rule files: no lint or analysis errors, same rule counts on every pass";
        Printf.sprintf
          "compiled %s optimizes %d Table 5 probes to the embedded rule set's costs"
          (List.hd files) !probes;
      ];
    c_layers = [];
  }

let setup ~seed =
  let texts = List.map read_file files in
  let catalog = W.Catalogs.make (W.Catalogs.default_spec ~classes:4 ~indexed:true ~seed) in
  let helpers = Prairie_algebra.Helpers.env catalog in
  let pass () = List.map (compile_one ~helpers) texts in
  (* warm-up *)
  for _ = 1 to 200 do
    ignore (pass ())
  done;
  let first = pass () in
  let last = ref first in
  let measure ~seconds =
    let lat = Samples.create () in
    let attempted = ref 0 and failed = ref 0 and busy = ref 0.0 in
    let t0 = now_ns () in
    while !attempted = 0 || seconds_since t0 < seconds do
      incr attempted;
      match Workload.attempt ~failed (fun () -> time_ms pass) with
      | Some (r, ms) ->
        Samples.add lat ms;
        busy := !busy +. (ms /. 1000.0);
        last := r
      | None -> ()
    done;
    let latencies_ms = Samples.to_array lat in
    {
      Workload.latencies_ms;
      items = List.length texts * Array.length latencies_ms;
      busy_s = !busy;
      attempted = !attempted;
      failed = !failed;
      m_layers = [];
    }
  in
  {
    Workload.trace = (fun () -> traced_pass ~helpers texts ~passes:400);
    measure;
    check =
      (fun () ->
        check ~first ~last:!last (Dsl.Parser.parse (List.hd texts)));
  }

let spec =
  {
    Workload.name = "compile";
    op = "one pass over both rule files: parse, elaborate, translate, lint, analyze";
    item = "rule file compiled and checked";
    setup;
  }
