(* prairiec: the Prairie rule-specification compiler front-end.

   Subcommands:
     check    parse and validate a .prairie file
     lint     static analysis: structured diagnostics with stable codes
     analyze  whole-rule-set dataflow analysis: reachability, constant
              tests, property flow, subsumption/overlap (P3xx)
     verify   semantic verification: randomized counterexample search (P2xx)
     report   run the P2V pre-processor and print the translation report
     render   export an embedded rule set as .prairie source
     optimize run a workload query through a rule set
     trace    optimize with a structured event trace and explain the search
     profile  optimize under the span profiler: per-rule time attribution
     serve    batch-optimize a query mix on the parallel plan service
     sql      compile a SQL-like query, optimize and optionally execute *)

open Cmdliner

module Dsl = Prairie_dsl
module Explain = Prairie_volcano.Explain
module P2v = Prairie_p2v
module W = Prairie_workload
module Opt = Prairie_optimizers.Optimizers
module Obs_trace = Prairie_obs.Trace
module Metrics = Prairie_obs.Metrics
module Span = Prairie_obs.Span
module Slow_log = Prairie_obs.Slow_log
module Telemetry = Prairie_service.Telemetry

let default_catalog () =
  W.Catalogs.make (W.Catalogs.default_spec ~classes:4 ~indexed:true ~seed:1)

let load_ruleset path catalog =
  try Ok (Dsl.Elaborate.load ~helpers:(Prairie_algebra.Helpers.env catalog) path) with
  | Dsl.Elaborate.Elab_error errs ->
    Error (String.concat "\n" (List.map (fun e -> "error: " ^ e) errs))
  | Dsl.Parser.Parse_error (pos, msg) ->
    Error
      (Format.asprintf "%s: parse error at %a: %s" path Dsl.Lexer.pp_position
         pos msg)
  | Dsl.Lexer.Lex_error (pos, msg) ->
    Error
      (Format.asprintf "%s: lexical error at %a: %s" path Dsl.Lexer.pp_position
         pos msg)
  | Sys_error msg -> Error msg

let embedded = function
  | "relational" -> Ok (Prairie_algebra.Relational.ruleset (default_catalog ()))
  | "oodb" -> Ok (Prairie_algebra.Oodb.ruleset (default_catalog ()))
  | other ->
    Error (Printf.sprintf "unknown embedded rule set %S (have: relational, oodb)" other)

let verbose_arg =
  Arg.(
    value & flag
    & info [ "verbose"; "v" ] ~doc:"Trace the search engine (rule firings, winners).")

let setup_verbose v =
  if v then begin
    Logs.set_reporter (Logs.format_reporter ());
    Logs.Src.set_level Prairie_volcano.Search.log_src (Some Logs.Debug)
  end

let file_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:"Rule-specification file (.prairie).")

let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* ---------------- check ---------------- *)

let check_cmd =
  let run path =
    match load_ruleset path (default_catalog ()) with
    | Ok rs ->
      Printf.printf "%s: OK (%d T-rules, %d I-rules)\n" path
        (Prairie.Ruleset.trule_count rs)
        (Prairie.Ruleset.irule_count rs);
      `Ok ()
    | Error msg ->
      prerr_endline msg;
      `Error (false, "validation failed")
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Parse and validate a rule-specification file.")
    Term.(ret (const run $ file_arg))

(* ---------------- lint ---------------- *)

let lint_cmd =
  let module Lint = Prairie_lint.Lint in
  let module Diag = Prairie.Diagnostic in
  let files_arg =
    Arg.(
      non_empty
      & pos_all file []
      & info [] ~docv:"FILE" ~doc:"Rule-specification files (.prairie).")
  in
  let format_arg =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
      & info [ "format" ] ~docv:"FORMAT"
          ~doc:"Output format: $(b,text) or $(b,json).")
  in
  let max_warnings_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-warnings" ] ~docv:"N"
          ~doc:"Fail (exit 2) when more than $(docv) warnings are found.")
  in
  let run files format max_warnings =
    let helpers = Prairie_algebra.Helpers.env (default_catalog ()) in
    let results =
      List.map (fun path -> (path, Lint.lint_file ~helpers path)) files
    in
    let totals (_, ds) = Lint.summary ds in
    let total_errors =
      List.fold_left (fun n r -> n + (fun (e, _, _) -> e) (totals r)) 0 results
    in
    let total_warnings =
      List.fold_left (fun n r -> n + (fun (_, w, _) -> w) (totals r)) 0 results
    in
    (match format with
    | `Text ->
      List.iter
        (fun (path, ds) ->
          match ds with
          | [] -> Printf.printf "%s: clean\n" path
          | ds ->
            List.iter
              (fun d -> Printf.printf "%s: %s\n" path (Diag.to_string d))
              ds)
        results;
      if total_errors > 0 || total_warnings > 0 then
        Printf.printf "%d error(s), %d warning(s)\n" total_errors total_warnings
    | `Json ->
      let file_json (path, ds) =
        let e, w, _ = Lint.summary ds in
        Printf.sprintf
          "{\"file\":\"%s\",\"diagnostics\":[%s],\"errors\":%d,\"warnings\":%d}"
          (json_escape path)
          (String.concat "," (List.map Diag.to_json ds))
          e w
      in
      Printf.printf
        "{\"files\":[%s],\"total_errors\":%d,\"total_warnings\":%d}\n"
        (String.concat "," (List.map file_json results))
        total_errors total_warnings);
    if total_errors > 0 then exit 1;
    (match max_warnings with
    | Some n when total_warnings > n ->
      Printf.eprintf "too many warnings: %d (allowed: %d)\n" total_warnings n;
      exit 2
    | _ -> ());
    `Ok ()
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically analyze rule-specification files: declaration, binding, \
          property-classification, termination and enforcer checks with \
          stable diagnostic codes (P001...). Exits 1 on errors, 2 when \
          $(b,--max-warnings) is exceeded.")
    Term.(ret (const run $ files_arg $ format_arg $ max_warnings_arg))

(* ---------------- analyze ---------------- *)

let analyze_cmd =
  let module Analysis = Prairie_analysis.Analysis in
  let module Diag = Prairie.Diagnostic in
  let files_arg =
    Arg.(
      non_empty
      & pos_all file []
      & info [] ~docv:"FILE" ~doc:"Rule-specification files (.prairie).")
  in
  let roots_arg =
    Arg.(
      value
      & opt_all string []
      & info [ "roots" ] ~docv:"OP"
          ~doc:
            "Workload root operator for the reachability closure \
             (repeatable).  Default: every declared non-enforcer operator.")
  in
  let format_arg =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
      & info [ "format" ] ~docv:"FORMAT"
          ~doc:"Output format: $(b,text) or $(b,json).")
  in
  let max_warnings_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-warnings" ] ~docv:"N"
          ~doc:"Fail (exit 2) when more than $(docv) warnings are found.")
  in
  let run files roots format max_warnings =
    let config = { Analysis.roots } in
    let results =
      List.map (fun path -> (path, Analysis.analyze_file ~config path)) files
    in
    let total_errors =
      List.fold_left
        (fun n (_, (r : Analysis.report)) ->
          n + (fun (e, _, _) -> e) (Analysis.summary r.Analysis.diagnostics))
        0 results
    in
    let total_warnings =
      List.fold_left
        (fun n (_, (r : Analysis.report)) ->
          n + (fun (_, w, _) -> w) (Analysis.summary r.Analysis.diagnostics))
        0 results
    in
    (match format with
    | `Text ->
      List.iter
        (fun (path, (r : Analysis.report)) ->
          (match r.Analysis.diagnostics with
          | [] -> Printf.printf "%s: clean\n" path
          | ds ->
            List.iter
              (fun d -> Printf.printf "%s: %s\n" path (Diag.to_string d))
              ds);
          Printf.printf
            "%s: %d operator(s) reachable, %d dead rule(s), %d unreachable \
             rule(s)\n"
            path
            (List.length r.Analysis.reachable)
            (List.length r.Analysis.dead_rules)
            (List.length r.Analysis.unreachable_rules))
        results;
      if total_errors > 0 || total_warnings > 0 then
        Printf.printf "%d error(s), %d warning(s)\n" total_errors
          total_warnings
    | `Json ->
      let strings ss =
        String.concat ","
          (List.map (fun s -> Printf.sprintf "\"%s\"" (json_escape s)) ss)
      in
      let file_json (path, (r : Analysis.report)) =
        let e, w, _ = Analysis.summary r.Analysis.diagnostics in
        Printf.sprintf
          "{\"file\":\"%s\",\"ruleset\":\"%s\",\"diagnostics\":[%s],\
           \"errors\":%d,\"warnings\":%d,\"reachable\":[%s],\
           \"dead_rules\":[%s],\"unreachable_rules\":[%s],\
           \"required_physical\":[%s],\"produced_physical\":[%s]}"
          (json_escape path)
          (json_escape r.Analysis.ruleset)
          (String.concat "," (List.map Diag.to_json r.Analysis.diagnostics))
          e w
          (strings r.Analysis.reachable)
          (strings r.Analysis.dead_rules)
          (strings r.Analysis.unreachable_rules)
          (strings r.Analysis.required_physical)
          (strings r.Analysis.produced_physical)
      in
      Printf.printf
        "{\"files\":[%s],\"total_errors\":%d,\"total_warnings\":%d}\n"
        (String.concat "," (List.map file_json results))
        total_errors total_warnings);
    if total_errors > 0 then exit 1;
    (match max_warnings with
    | Some n when total_warnings > n ->
      Printf.eprintf "too many warnings: %d (allowed: %d)\n" total_warnings n;
      exit 2
    | _ -> ());
    `Ok ()
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Run whole-rule-set dataflow analysis: operator reachability, \
          constant-test folding, physical-property flow and pairwise \
          subsumption/overlap (P3xx codes). Where $(b,lint) checks each \
          rule locally, $(b,analyze) reasons across the rule set. Exits 1 \
          on errors, 2 when $(b,--max-warnings) is exceeded.")
    Term.(ret (const run $ files_arg $ roots_arg $ format_arg $ max_warnings_arg))

(* ---------------- verify ---------------- *)

let verify_cmd =
  let module Verify = Prairie_verify.Verify in
  let module Diag = Prairie.Diagnostic in
  let files_arg =
    Arg.(
      non_empty
      & pos_all file []
      & info [] ~docv:"FILE" ~doc:"Rule-specification files (.prairie).")
  in
  let rules_arg =
    Arg.(
      value
      & opt_all string []
      & info [ "rules" ] ~docv:"RULE"
          ~doc:
            "Restrict verification to the named T-rule (repeatable). \
             Skips the whole-rule-set oracle phase.")
  in
  let seed_arg =
    Arg.(
      value
      & opt int Verify.default_config.Verify.seed
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"Master random seed; every case seed derives from it.")
  in
  let budget_arg =
    Arg.(
      value
      & opt int Verify.default_config.Verify.budget
      & info [ "budget" ] ~docv:"N"
          ~doc:"Generated cases per T-rule (and oracle queries).")
  in
  let oracle_forms_arg =
    Arg.(
      value
      & opt int Verify.default_config.Verify.oracle_forms
      & info [ "oracle-forms" ] ~docv:"N"
          ~doc:
            "Logical-closure cap for the naive-oracle comparison; queries \
             whose closure reaches the cap are skipped (the naive best \
             would not be authoritative).")
  in
  let format_arg =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
      & info [ "format" ] ~docv:"FORMAT"
          ~doc:"Output format: $(b,text) or $(b,json).")
  in
  let max_warnings_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-warnings" ] ~docv:"N"
          ~doc:"Fail (exit 2) when more than $(docv) warnings are found.")
  in
  let run files rules seed budget oracle_forms format max_warnings =
    let config =
      { Verify.default_config with Verify.seed; budget; oracle_forms; rules }
    in
    let results =
      List.map (fun path -> (path, Verify.verify_file ~config path)) files
    in
    let total_errors =
      List.fold_left
        (fun n (_, (r : Verify.report)) ->
          n + (fun (e, _, _) -> e) (Verify.summary r.Verify.diagnostics))
        0 results
    in
    let total_warnings =
      List.fold_left
        (fun n (_, (r : Verify.report)) ->
          n + (fun (_, w, _) -> w) (Verify.summary r.Verify.diagnostics))
        0 results
    in
    (match format with
    | `Text ->
      List.iter
        (fun (path, (r : Verify.report)) ->
          (match r.Verify.diagnostics with
          | [] -> Printf.printf "%s: clean\n" path
          | ds ->
            List.iter
              (fun d -> Printf.printf "%s: %s\n" path (Diag.to_string d))
              ds);
          Printf.printf
            "%s: %d rule(s) checked, %d case(s), %d counterexample(s), %d \
             shrink step(s) (seed %d)\n"
            path r.Verify.rules_checked r.Verify.cases_generated
            r.Verify.counterexamples r.Verify.shrink_steps r.Verify.seed)
        results;
      if total_errors > 0 || total_warnings > 0 then
        Printf.printf "%d error(s), %d warning(s)\n" total_errors
          total_warnings
    | `Json ->
      let rule_json (r : Verify.rule_report) =
        Printf.sprintf
          "{\"rule\":\"%s\",\"cases\":%d,\"redexes\":%d,\
           \"counterexamples\":%d,\"shrink_steps\":%d}"
          (json_escape r.Verify.rule) r.Verify.cases r.Verify.redexes
          r.Verify.counterexamples r.Verify.shrink_steps
      in
      let file_json (path, (r : Verify.report)) =
        let e, w, _ = Verify.summary r.Verify.diagnostics in
        Printf.sprintf
          "{\"file\":\"%s\",\"ruleset\":\"%s\",\"seed\":%d,\
           \"diagnostics\":[%s],\"errors\":%d,\"warnings\":%d,\
           \"rules_checked\":%d,\"cases_generated\":%d,\
           \"counterexamples\":%d,\"shrink_steps\":%d,\"rules\":[%s]}"
          (json_escape path)
          (json_escape r.Verify.ruleset)
          r.Verify.seed
          (String.concat "," (List.map Diag.to_json r.Verify.diagnostics))
          e w r.Verify.rules_checked r.Verify.cases_generated
          r.Verify.counterexamples r.Verify.shrink_steps
          (String.concat "," (List.map rule_json r.Verify.rules))
      in
      Printf.printf
        "{\"files\":[%s],\"total_errors\":%d,\"total_warnings\":%d,\
         \"seed\":%d}\n"
        (String.concat "," (List.map file_json results))
        total_errors total_warnings seed);
    if total_errors > 0 then exit 1;
    (match max_warnings with
    | Some n when total_warnings > n ->
      Printf.eprintf "too many warnings: %d (allowed: %d)\n" total_warnings n;
      exit 2
    | _ -> ());
    `Ok ()
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Semantically verify rule-specification files: generate random \
          catalogs and expressions per T-rule, apply the rules, and hunt \
          for crashes, root-property changes, oracle cost divergence and \
          run-time rewrite cycles (P2xx codes), shrinking counterexamples \
          to minimal witnesses. Deterministic in $(b,--seed). Exits 1 on \
          errors, 2 when $(b,--max-warnings) is exceeded.")
    Term.(
      ret
        (const run $ files_arg $ rules_arg $ seed_arg $ budget_arg
       $ oracle_forms_arg $ format_arg $ max_warnings_arg))

(* ---------------- report ---------------- *)

let report_cmd =
  let compose =
    Arg.(
      value & opt bool true
      & info [ "compose" ] ~doc:"Enable rule merging/composition (§3.3).")
  in
  let run path compose =
    match load_ruleset path (default_catalog ()) with
    | Ok rs ->
      let tr = P2v.Translate.translate ~compose rs in
      Format.printf "%a@." P2v.Report.pp (P2v.Report.of_translation tr);
      `Ok ()
    | Error msg ->
      prerr_endline msg;
      `Error (false, "translation failed")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Run the P2V pre-processor and print the translation report.")
    Term.(ret (const run $ file_arg $ compose))

(* ---------------- render ---------------- *)

let render_cmd =
  let name_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"NAME" ~doc:"Embedded rule set: relational or oodb.")
  in
  let run name =
    match embedded name with
    | Ok rs ->
      print_string (Dsl.Render.ruleset_to_string rs);
      `Ok ()
    | Error msg ->
      prerr_endline msg;
      `Error (false, "unknown rule set")
  in
  Cmd.v
    (Cmd.info "render"
       ~doc:"Print an embedded rule set as .prairie source (exportable).")
    Term.(ret (const run $ name_arg))

(* ---------------- optimize ---------------- *)

let optimize_cmd =
  let query_arg =
    Arg.(
      value & opt int 5
      & info [ "query"; "q" ] ~docv:"N" ~doc:"Workload query Q$(docv) (1-8).")
  in
  let joins_arg =
    Arg.(value & opt int 2 & info [ "joins"; "n" ] ~docv:"N" ~doc:"Number of joins.")
  in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Catalog seed.")
  in
  let ruleset_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "ruleset"; "r" ] ~docv:"FILE"
          ~doc:"Rule file to use instead of the embedded OODB rule set.")
  in
  let strategy_arg =
    Arg.(
      value
      & opt (enum [ ("top-down", `Top_down); ("bottom-up", `Bottom_up) ]) `Top_down
      & info [ "strategy" ] ~docv:"STRATEGY"
          ~doc:"Search strategy: $(b,top-down) (Volcano) or $(b,bottom-up)                 (System R dynamic programming).")
  in
  let run qn joins seed ruleset_path strategy verbose =
    setup_verbose verbose;
    match W.Queries.of_int qn with
    | None -> `Error (false, "query number must be 1-8")
    | Some q -> (
      let inst = W.Queries.instance q ~joins ~seed in
      let catalog = inst.W.Queries.catalog in
      let ruleset_result =
        match ruleset_path with
        | None -> Ok (Prairie_algebra.Oodb.ruleset catalog)
        | Some path -> load_ruleset path catalog
      in
      match ruleset_result with
      | Error msg ->
        prerr_endline msg;
        `Error (false, "could not load the rule set")
      | Ok rs ->
        let tr = P2v.Translate.translate rs in
        let opt =
          {
            Opt.name = rs.Prairie.Ruleset.name;
            volcano = tr.P2v.Translate.volcano;
            prepare = P2v.Translate.prepare_query tr;
          }
        in
        Format.printf "query %s (%d joins, seed %d): %a@." (W.Queries.name q)
          joins seed Prairie.Expr.pp inst.W.Queries.expr;
        (match strategy with
        | `Top_down -> (
          let r = Opt.optimize opt inst.W.Queries.expr in
          match r.Opt.plan with
          | Some plan ->
            Format.printf "@.best plan: %s@.@." (Explain.summary plan);
            Format.printf "%a" Explain.pp plan;
            Format.printf "@.%a@." Prairie_volcano.Stats.pp
              (Prairie_volcano.Search.stats r.Opt.search)
          | None -> print_endline "no plan found")
        | `Bottom_up -> (
          let expr, required = opt.Opt.prepare inst.W.Queries.expr in
          let r = Prairie_volcano.Bottom_up.optimize ~required opt.Opt.volcano expr in
          match r.Prairie_volcano.Bottom_up.plan with
          | Some plan ->
            Format.printf "@.best plan (bottom-up): %s@.@." (Explain.summary plan);
            Format.printf "%a" Explain.pp plan;
            Format.printf
              "@.%d groups, %d (group, requirement) DP entries, %d plans costed@."
              r.Prairie_volcano.Bottom_up.groups_explored
              r.Prairie_volcano.Bottom_up.requirements_considered
              r.Prairie_volcano.Bottom_up.plans_costed
          | None -> print_endline "no plan found"));
        `Ok ())
  in
  Cmd.v
    (Cmd.info "optimize" ~doc:"Optimize a workload query with a rule set.")
    Term.(
      ret
        (const run $ query_arg $ joins_arg $ seed_arg $ ruleset_arg
       $ strategy_arg $ verbose_arg))

(* ---------------- trace ---------------- *)

let trace_cmd =
  let query_arg =
    Arg.(
      value & opt int 5
      & info [ "query"; "q" ] ~docv:"N" ~doc:"Workload query Q$(docv) (1-8).")
  in
  let joins_arg =
    Arg.(value & opt int 2 & info [ "joins"; "n" ] ~docv:"N" ~doc:"Number of joins.")
  in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Catalog seed.")
  in
  let ruleset_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "ruleset"; "r" ] ~docv:"FILE"
          ~doc:"Rule file to use instead of the embedded OODB rule set.")
  in
  let capacity_arg =
    Arg.(
      value & opt int 65536
      & info [ "capacity" ] ~docv:"K"
          ~doc:"Trace ring-buffer capacity: older events beyond K are dropped.")
  in
  let budget_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "group-budget" ] ~docv:"B"
          ~doc:"Memo group budget (shows budget-exhaustion in the trace).")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"FILE"
          ~doc:"Also dump the raw trace to $(docv) (- for stdout).")
  in
  let format_arg =
    Arg.(
      value
      & opt (enum [ ("jsonl", `Jsonl); ("chrome", `Chrome) ]) `Jsonl
      & info [ "format"; "f" ] ~docv:"FORMAT"
          ~doc:
            "Dump format for --out: $(b,jsonl) (one JSON event per line) or \
             $(b,chrome) (Chrome trace-event JSON, loadable in \
             chrome://tracing and Perfetto).")
  in
  let run qn joins seed ruleset_path capacity group_budget out format verbose =
    setup_verbose verbose;
    if capacity < 1 then `Error (false, "--capacity must be at least 1")
    else
      match W.Queries.of_int qn with
      | None -> `Error (false, "query number must be 1-8")
      | Some q -> (
        let inst = W.Queries.instance q ~joins ~seed in
        let catalog = inst.W.Queries.catalog in
        let ruleset_result =
          match ruleset_path with
          | None -> Ok (Prairie_algebra.Oodb.ruleset catalog)
          | Some path -> load_ruleset path catalog
        in
        match ruleset_result with
        | Error msg ->
          prerr_endline msg;
          `Error (false, "could not load the rule set")
        | Ok rs ->
          let tr = P2v.Translate.translate rs in
          let opt =
            {
              Opt.name = rs.Prairie.Ruleset.name;
              volcano = tr.P2v.Translate.volcano;
              prepare = P2v.Translate.prepare_query tr;
            }
          in
          let sink = Obs_trace.create ~capacity () in
          Format.printf "query %s (%d joins, seed %d): %a@." (W.Queries.name q)
            joins seed Prairie.Expr.pp inst.W.Queries.expr;
          let r = Opt.optimize ?group_budget ~trace:sink opt inst.W.Queries.expr in
          (match r.Opt.plan with
          | Some plan ->
            Format.printf "@.best plan: %s@.@." (Explain.summary plan);
            Format.printf "%a" Explain.pp plan
          | None -> print_endline "no plan found");
          Format.printf "@.%a@." Explain.trace sink;
          (match out with
          | None -> ()
          | Some dest ->
            let dump oc =
              match format with
              | `Jsonl -> Obs_trace.output_jsonl oc sink
              | `Chrome -> output_string oc (Span.chrome_of_trace sink)
            in
            (match dest with
            | "-" -> dump stdout
            | path ->
              let oc = open_out path in
              Fun.protect ~finally:(fun () -> close_out oc) (fun () -> dump oc);
              Printf.printf "trace written to %s (%d events, %d dropped)\n" path
                (Obs_trace.length sink) (Obs_trace.dropped sink)));
          `Ok ())
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Optimize a workload query with structured search tracing: the \
          per-rule account of matches, applications and rejections (with \
          reasons), winner changes and memo behaviour — why the plan was \
          chosen, and why other rules never fired.")
    Term.(
      ret
        (const run $ query_arg $ joins_arg $ seed_arg $ ruleset_arg
       $ capacity_arg $ budget_arg $ out_arg $ format_arg $ verbose_arg))

(* ---------------- profile ---------------- *)

let profile_cmd =
  let query_arg =
    Arg.(
      value & opt int 5
      & info [ "query"; "q" ] ~docv:"N" ~doc:"Workload query Q$(docv) (1-8).")
  in
  let joins_arg =
    Arg.(value & opt int 2 & info [ "joins"; "n" ] ~docv:"N" ~doc:"Number of joins.")
  in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Catalog seed.")
  in
  let ruleset_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "ruleset"; "r" ] ~docv:"FILE"
          ~doc:"Rule file to use instead of the embedded OODB rule set.")
  in
  let capacity_arg =
    Arg.(
      value & opt int 65536
      & info [ "capacity" ] ~docv:"K"
          ~doc:
            "Span ring-buffer capacity: older span records beyond K are \
             dropped (the per-rule aggregates stay exact).")
  in
  let budget_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "group-budget" ] ~docv:"B"
          ~doc:"Memo group budget (profile a degraded search).")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"FILE"
          ~doc:
            "Also dump the spans as Chrome trace-event JSON to $(docv) (- for \
             stdout); load it in chrome://tracing or Perfetto.")
  in
  let run qn joins seed ruleset_path capacity group_budget out verbose =
    setup_verbose verbose;
    if capacity < 1 then `Error (false, "--capacity must be at least 1")
    else
      match W.Queries.of_int qn with
      | None -> `Error (false, "query number must be 1-8")
      | Some q -> (
        let inst = W.Queries.instance q ~joins ~seed in
        let catalog = inst.W.Queries.catalog in
        let ruleset_result =
          match ruleset_path with
          | None -> Ok (Prairie_algebra.Oodb.ruleset catalog)
          | Some path -> load_ruleset path catalog
        in
        match ruleset_result with
        | Error msg ->
          prerr_endline msg;
          `Error (false, "could not load the rule set")
        | Ok rs ->
          let tr = P2v.Translate.translate rs in
          let opt =
            {
              Opt.name = rs.Prairie.Ruleset.name;
              volcano = tr.P2v.Translate.volcano;
              prepare = P2v.Translate.prepare_query tr;
            }
          in
          let sink = Span.create ~capacity () in
          Format.printf "query %s (%d joins, seed %d): %a@." (W.Queries.name q)
            joins seed Prairie.Expr.pp inst.W.Queries.expr;
          let t0 = Unix.gettimeofday () in
          let r = Opt.optimize ?group_budget ~spans:sink opt inst.W.Queries.expr in
          let wall_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
          (match r.Opt.plan with
          | Some plan ->
            Format.printf "@.best plan: %s (cost %.3f)@." (Explain.summary plan)
              r.Opt.cost
          | None -> print_endline "no plan found");
          Format.printf "@.%a@." Explain.profile sink;
          let rooted_ms = Int64.to_float (Span.root_total_ns sink) /. 1e6 in
          Format.printf
            "wall %.3f ms, rooted spans account for %.3f ms (%.1f%%)@." wall_ms
            rooted_ms
            (if wall_ms > 0.0 then 100.0 *. rooted_ms /. wall_ms else 0.0);
          (match out with
          | None -> ()
          | Some "-" -> print_string (Span.to_chrome sink)
          | Some path ->
            let oc = open_out path in
            Fun.protect
              ~finally:(fun () -> close_out oc)
              (fun () -> output_string oc (Span.to_chrome sink));
            Printf.printf "chrome trace written to %s (%d spans, %d dropped)\n"
              path (Span.length sink) (Span.dropped sink));
          `Ok ())
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Optimize a workload query under the span profiler: hierarchical \
          timed spans over the search phases (explore, match, apply, cost, \
          enforcers, memo inserts) with per-rule attribution, reported as a \
          self/total time table and optionally exported as a Chrome trace.")
    Term.(
      ret
        (const run $ query_arg $ joins_arg $ seed_arg $ ruleset_arg
       $ capacity_arg $ budget_arg $ out_arg $ verbose_arg))

(* ---------------- serve ---------------- *)

let serve_cmd =
  let jobs_arg =
    Arg.(
      value & opt int 0
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Worker domains for the plan service (0 = one per available \
             core).")
  in
  let cache_size_arg =
    Arg.(
      value & opt int 256
      & info [ "cache-size"; "k" ] ~docv:"K"
          ~doc:"Plan-cache capacity (LRU entries).")
  in
  let requests_arg =
    Arg.(
      value & opt int 32
      & info [ "requests"; "n" ] ~docv:"N"
          ~doc:"Batch size: the workload query mix is cycled to N requests.")
  in
  let joins_arg =
    Arg.(
      value & opt int 2
      & info [ "joins" ] ~docv:"N" ~doc:"Maximum joins per generated query.")
  in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Catalog seed.")
  in
  let budget_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "group-budget" ] ~docv:"B"
          ~doc:
            "Per-request memo budget: over-large queries degrade gracefully \
             instead of stalling a worker.")
  in
  let metrics_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Dump service telemetry (request/search counters, latency \
             histograms, cache and per-worker gauges) in Prometheus text \
             format to $(docv) after the run (- for stdout).")
  in
  let telemetry_port_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "telemetry-port" ] ~docv:"PORT"
          ~doc:
            "Serve live telemetry over HTTP on 127.0.0.1:$(docv) while the \
             batches run: GET /metrics (Prometheus text, including p50/p99 \
             latency summaries), /healthz and /tracez (recent slow queries). \
             0 picks an ephemeral port (printed on startup).")
  in
  let linger_arg =
    Arg.(
      value & opt float 0.0
      & info [ "telemetry-linger" ] ~docv:"SECONDS"
          ~doc:
            "Keep the telemetry endpoint up for $(docv) seconds after the \
             batches finish (for scraping the final counters).")
  in
  let slow_ms_arg =
    Arg.(
      value & opt float 100.0
      & info [ "slow-ms" ] ~docv:"MS"
          ~doc:
            "Slow-query threshold in milliseconds: searches at or above it \
             are recorded in the slow-query log served at /tracez.")
  in
  let run jobs cache_size requests max_joins seed group_budget
      metrics_file telemetry_port linger slow_ms verbose =
    setup_verbose verbose;
    if max_joins < 1 then `Error (false, "--joins must be at least 1")
    else if requests < 0 then `Error (false, "--requests must be non-negative")
    else if slow_ms < 0.0 then `Error (false, "--slow-ms must be non-negative")
    else if linger < 0.0 then
      `Error (false, "--telemetry-linger must be non-negative")
    else begin
    let jobs = if jobs <= 0 then Prairie_service.Pool.default_jobs () else jobs in
    let metrics =
      (* the endpoint implies a registry even without a --metrics dump *)
      match (metrics_file, telemetry_port) with
      | None, None -> None
      | _ -> Some (Metrics.create ())
    in
    let slow_log =
      match telemetry_port with
      | None -> None
      | Some _ -> Some (Slow_log.create ~threshold:(slow_ms /. 1000.0) ())
    in
    let telemetry =
      match telemetry_port with
      | None -> None
      | Some port -> (
        match Telemetry.start ?metrics ?slow_log ~port () with
        | server ->
          Printf.printf
            "telemetry: http://%s:%d/metrics (also /healthz, /tracez)\n%!"
            (Telemetry.addr server) (Telemetry.port server);
          Some server
        | exception Unix.Unix_error (err, _, _) ->
          Printf.eprintf "telemetry: cannot bind port %d: %s\n%!" port
            (Unix.error_message err);
          exit 1)
    in
    let catalog =
      W.Catalogs.make
        (W.Catalogs.default_spec ~classes:(max_joins + 1) ~indexed:true ~seed)
    in
    let opt = Opt.oodb_prairie catalog in
    let distinct =
      List.concat_map
        (fun family ->
          List.map
            (fun joins -> Opt.request (W.Expressions.build family catalog ~joins))
            (List.init max_joins (fun i -> i + 1)))
        W.Expressions.all_families
    in
    let batch =
      List.init requests (fun i -> List.nth distinct (i mod List.length distinct))
    in
    let cache = Opt.Plan_cache.create ~capacity:cache_size () in
    let timed f =
      let t0 = Unix.gettimeofday () in
      let v = f () in
      (v, (Unix.gettimeofday () -. t0) *. 1000.0)
    in
    Printf.printf "plan service: %d requests (%d distinct), %d jobs, cache %d\n"
      (List.length batch) (List.length distinct) jobs cache_size;
    let cold, t_cold =
      timed (fun () ->
          Opt.serve ?group_budget ~jobs ~cache ?metrics ?slow_log opt batch)
    in
    let warm, t_warm =
      timed (fun () ->
          Opt.serve ?group_budget ~jobs ~cache ?metrics ?slow_log opt batch)
    in
    let summarize label served t =
      let hits = List.length (List.filter (fun s -> s.Opt.cache_hit) served) in
      let degraded = List.length (List.filter (fun s -> s.Opt.budget_hit) served) in
      let no_plan = List.length (List.filter (fun s -> s.Opt.plan = None) served) in
      Printf.printf
        "  %-5s %8.1f ms  %5.1f req/s  %d served without a fresh search, %d \
         degraded, %d without a plan\n"
        label t
        (float_of_int (List.length served) /. (Float.max 1e-6 t /. 1000.0))
        hits degraded no_plan
    in
    summarize "cold" cold t_cold;
    summarize "warm" warm t_warm;
    Format.printf "  cache: %a@." Opt.Plan_cache.pp_stats cache;
    (match (metrics_file, metrics) with
    | Some "-", Some m -> Metrics.output stdout `Prometheus m
    | Some path, Some m ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> Metrics.output oc `Prometheus m);
      Printf.printf "  metrics written to %s\n" path
    | _ -> ());
    (match slow_log with
    | Some log when Slow_log.length log > 0 ->
      Printf.printf "  slow-query log: %d search(es) at or above %.1f ms\n"
        (Slow_log.length log) slow_ms
    | _ -> ());
    (match telemetry with
    | None -> ()
    | Some server ->
      if linger > 0.0 then begin
        Printf.printf "telemetry: lingering %.1f s before shutdown\n%!" linger;
        Unix.sleepf linger
      end;
      Telemetry.stop server);
    `Ok ()
    end
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the parallel plan service on a batch of workload queries: a \
          domain pool of sequential searches sharing a fingerprint-keyed LRU \
          plan cache.")
    Term.(
      ret
        (const run $ jobs_arg $ cache_size_arg
       $ requests_arg $ joins_arg $ seed_arg $ budget_arg $ metrics_arg
       $ telemetry_port_arg $ linger_arg $ slow_ms_arg $ verbose_arg))

(* ---------------- sql ---------------- *)

let sql_cmd =
  let query_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SQL"
          ~doc:
            "Query text, e.g. 'select * from C1, C2 where C1.rC1 = C2.oid \
             and C1.bC1 = 3'.")
  in
  let classes_arg =
    Arg.(
      value & opt int 4
      & info [ "classes" ] ~docv:"N" ~doc:"Catalog size (classes C1..CN).")
  in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Catalog seed.")
  in
  let execute_arg =
    Arg.(
      value & flag
      & info [ "execute"; "x" ]
          ~doc:"Generate synthetic data and run the winning plan.")
  in
  let run sql classes seed execute verbose =
    setup_verbose verbose;
    let catalog =
      W.Catalogs.make (W.Catalogs.default_spec ~classes ~indexed:true ~seed)
    in
    match Prairie_query.Query.compile_string catalog sql with
    | exception Prairie_query.Query.Error msg ->
      prerr_endline ("error: " ^ msg);
      `Error (false, "bad query")
    | expr -> (
      Format.printf "operator tree: %a@." Prairie.Expr.pp expr;
      let r = Opt.optimize (Opt.oodb_prairie catalog) expr in
      match r.Opt.plan with
      | None ->
        print_endline "no plan found";
        `Ok ()
      | Some plan ->
        Format.printf "@.best plan: %s@.@." (Explain.summary plan);
        Format.printf "%a" Explain.pp plan;
        if execute then begin
          let db = Prairie_executor.Data_gen.database ~seed:(seed * 31) catalog in
          let schema, rows = Prairie_executor.Compile.execute_plan db plan in
          Format.printf "@.%d result tuples@." (List.length rows);
          List.iteri
            (fun i row ->
              if i < 10 then
                Format.printf "  %a@." (Prairie_executor.Tuple.pp schema) row)
            rows;
          if List.length rows > 10 then
            Format.printf "  ... (%d more)@." (List.length rows - 10)
        end;
        `Ok ())
  in
  Cmd.v
    (Cmd.info "sql"
       ~doc:
         "Compile a SQL-like query over a synthetic catalog, optimize it, \
          and optionally execute the plan.")
    Term.(
      ret
        (const run $ query_arg $ classes_arg $ seed_arg $ execute_arg
       $ verbose_arg))

let () =
  let info =
    Cmd.info "prairiec" ~version:"1.0.0"
      ~doc:
        "The Prairie rule-specification framework: validate, translate \
         (P2V) and run rule-based query optimizers."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            check_cmd;
            lint_cmd;
            analyze_cmd;
            verify_cmd;
            report_cmd;
            render_cmd;
            optimize_cmd;
            trace_cmd;
            profile_cmd;
            serve_cmd;
            sql_cmd;
          ]))
