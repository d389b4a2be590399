(* prairiec: the Prairie rule-specification compiler front-end.

   Subcommands:
     lint     static analysis: structured diagnostics with stable codes
     analyze  whole-rule-set dataflow analysis: reachability, constant
              tests, property flow, subsumption/overlap (P3xx)
     verify   semantic verification: randomized counterexample search (P2xx)
     report   run the P2V pre-processor and print the translation report
     optimize run a workload query through a rule set
     trace    optimize under the span sink: the per-rule account of the
              search and its per-rule time attribution
     serve    batch-optimize a query mix on the parallel plan service
     sql      compile a SQL-like query, optimize and optionally execute *)

open Cmdliner

module Dsl = Prairie_dsl
module Explain = Prairie_volcano.Explain
module P2v = Prairie_p2v
module W = Prairie_workload
module Opt = Prairie_optimizers.Optimizers
module Metrics = Prairie_obs.Metrics
module Span = Prairie_obs.Span
module Slow_log = Prairie_obs.Slow_log
module Telemetry = Prairie_service.Telemetry

let default_catalog () =
  W.Catalogs.make (W.Catalogs.default_spec ~classes:4 ~indexed:true ~seed:1)

module Diag = Prairie.Diagnostic
module Json = Prairie_util.Json

(* Every subcommand reads a rule file this way: a file that cannot be read
   is one P000 error. *)
let read_source path =
  match In_channel.with_open_bin path In_channel.input_all with
  | src -> Ok src
  | exception Sys_error msg ->
    Error (Diag.error ~code:"P000" ("read error: " ^ msg))

(* Read, parse and elaborate a rule file.  Every failure is reported as
   lint reports it, one "FILE: error[Pxxx] ..." line per diagnostic. *)
let load_ruleset path catalog =
  let loaded =
    match Result.bind (read_source path) Prairie_lint.Lint.parse_source with
    | Error d -> Error [ d ]
    | Ok spec -> (
      try Ok (Dsl.Elaborate.elaborate ~helpers:(Prairie_algebra.Helpers.env catalog) spec)
      with Dsl.Elaborate.Elab_error ds -> Error ds)
  in
  Result.map_error
    (fun ds ->
      String.concat "\n"
        (List.map (fun d -> Printf.sprintf "%s: %s" path (Diag.to_string d)) ds))
    loaded

let file_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:"Rule-specification file (.prairie).")

(* ---------------- lint, analyze, verify ---------------- *)

(* The one front end of the three rule checkers.  It owns the FILE list,
   --format and --max-warnings, reads each file once (an unreadable file
   is one P000 error), prints the per-file text lines or the JSON
   envelope, and exits 1 on errors, 2 past --max-warnings.  A checker
   supplies its extra arguments together with its check function as
   [check], the [diagnostics] of its report, a per-file text [footer], its
   JSON fields before "diagnostics" ([json_head]) and after "warnings"
   ([json_tail]), and top-level JSON fields ([json_top]). *)
let checker_cmd name ~doc ~diagnostics ?footer ?(json_head = fun _ -> "")
    ?(json_tail = fun _ -> "") ?(json_top = Term.const "") check =
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
  let run check json_top files format max_warnings =
    let results =
      List.map (fun path -> (path, Result.map check (read_source path))) files
    in
    let diags = function Ok r -> diagnostics r | Error d -> [ d ] in
    let total pick =
      List.fold_left (fun n (_, r) -> n + pick (Diag.summary (diags r))) 0 results
    in
    let total_errors = total (fun (e, _, _) -> e) in
    let total_warnings = total (fun (_, w, _) -> w) in
    (match format with
    | `Text ->
      List.iter
        (fun (path, r) ->
          (match diags r with
          | [] -> Printf.printf "%s: clean\n" path
          | ds ->
            List.iter
              (fun d -> Printf.printf "%s: %s\n" path (Diag.to_string d))
              ds);
          match (footer, r) with
          | Some footer, Ok r -> Printf.printf "%s: %s\n" path (footer r)
          | _ -> ())
        results;
      if total_errors > 0 || total_warnings > 0 then
        Printf.printf "%d error(s), %d warning(s)\n" total_errors total_warnings
    | `Json ->
      let file_json (path, r) =
        let ds = diags r in
        let e, w, _ = Diag.summary ds in
        let head, tail =
          match r with Ok r -> (json_head r, json_tail r) | Error _ -> ("", "")
        in
        Printf.sprintf
          "{\"file\":%s%s,\"diagnostics\":[%s],\"errors\":%d,\"warnings\":%d%s}"
          (Json.string path) head
          (String.concat "," (List.map Diag.to_json ds))
          e w tail
      in
      Printf.printf "{\"files\":[%s],\"total_errors\":%d,\"total_warnings\":%d%s}\n"
        (String.concat "," (List.map file_json results))
        total_errors total_warnings json_top);
    if total_errors > 0 then exit 1;
    match max_warnings with
    | Some n when total_warnings > n ->
      Printf.eprintf "too many warnings: %d (allowed: %d)\n" total_warnings n;
      exit 2
    | _ -> ()
  in
  Cmd.v (Cmd.info name ~doc)
    Term.(
      const run $ check $ json_top $ files_arg $ format_arg $ max_warnings_arg)

let lint_cmd =
  let module Lint = Prairie_lint.Lint in
  let check () =
    let helpers = Prairie_algebra.Helpers.env (default_catalog ()) in
    Lint.lint_string ~helpers
  in
  checker_cmd "lint"
    ~doc:
      "Statically analyze rule-specification files: declaration, binding, \
       property-classification, termination and enforcer checks with \
       stable diagnostic codes (P001...). Exits 1 on errors, 2 when \
       $(b,--max-warnings) is exceeded."
    ~diagnostics:Fun.id
    Term.(const check $ const ())

let analyze_cmd =
  let module Analysis = Prairie_analysis.Analysis in
  let json_strings ss = String.concat "," (List.map Json.string ss) in
  let roots_arg =
    Arg.(
      value
      & opt_all string []
      & info [ "roots" ] ~docv:"OP"
          ~doc:
            "Workload root operator for the reachability closure \
             (repeatable).  Default: every declared non-enforcer operator.")
  in
  checker_cmd "analyze"
    ~doc:
      "Run whole-rule-set dataflow analysis: operator reachability, \
       constant-test folding, physical-property flow and pairwise \
       subsumption/overlap (P3xx codes). Where $(b,lint) checks each \
       rule locally, $(b,analyze) reasons across the rule set. Exits 1 \
       on errors, 2 when $(b,--max-warnings) is exceeded."
    ~diagnostics:(fun (r : Analysis.report) -> r.Analysis.diagnostics)
    ~footer:(fun r ->
      Printf.sprintf
        "%d operator(s) reachable, %d dead rule(s), %d unreachable rule(s)"
        (List.length r.Analysis.reachable)
        (List.length r.Analysis.dead_rules)
        (List.length r.Analysis.unreachable_rules))
    ~json_head:(fun r ->
      Printf.sprintf ",\"ruleset\":%s" (Json.string r.Analysis.ruleset))
    ~json_tail:(fun r ->
      Printf.sprintf
        ",\"reachable\":[%s],\"dead_rules\":[%s],\"unreachable_rules\":[%s],\
         \"required_physical\":[%s],\"produced_physical\":[%s]"
        (json_strings r.Analysis.reachable)
        (json_strings r.Analysis.dead_rules)
        (json_strings r.Analysis.unreachable_rules)
        (json_strings r.Analysis.required_physical)
        (json_strings r.Analysis.produced_physical))
    Term.(
      const (fun roots -> Analysis.analyze_string ~config:{ Analysis.roots })
      $ roots_arg)

let verify_cmd =
  let module Verify = Prairie_verify.Verify in
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
  let check rules seed budget oracle_forms =
    Verify.verify_string
      ~config:{ Verify.seed; budget; oracle_forms; rules }
  in
  let rule_json (r : Verify.rule_report) =
    Printf.sprintf
      "{\"rule\":%s,\"cases\":%d,\"redexes\":%d,\"counterexamples\":%d,\
       \"shrink_steps\":%d}"
      (Json.string r.Verify.rule) r.Verify.cases r.Verify.redexes
      r.Verify.counterexamples r.Verify.shrink_steps
  in
  checker_cmd "verify"
    ~doc:
      "Semantically verify rule-specification files: generate random \
       catalogs and expressions per T-rule, apply the rules, and hunt \
       for crashes, root-property changes, oracle cost divergence and \
       run-time rewrite cycles (P2xx codes), shrinking counterexamples \
       to minimal witnesses. Deterministic in $(b,--seed). Exits 1 on \
       errors, 2 when $(b,--max-warnings) is exceeded."
    ~diagnostics:(fun (r : Verify.report) -> r.Verify.diagnostics)
    ~footer:(fun r ->
      Printf.sprintf
        "%d rule(s) checked, %d case(s), %d counterexample(s), %d shrink \
         step(s) (seed %d)"
        r.Verify.rules_checked r.Verify.cases_generated
        r.Verify.counterexamples r.Verify.shrink_steps r.Verify.seed)
    ~json_head:(fun r ->
      Printf.sprintf ",\"ruleset\":%s,\"seed\":%d"
        (Json.string r.Verify.ruleset) r.Verify.seed)
    ~json_tail:(fun r ->
      Printf.sprintf
        ",\"rules_checked\":%d,\"cases_generated\":%d,\"counterexamples\":%d,\
         \"shrink_steps\":%d,\"rules\":[%s]"
        r.Verify.rules_checked r.Verify.cases_generated
        r.Verify.counterexamples r.Verify.shrink_steps
        (String.concat "," (List.map rule_json r.Verify.rules)))
    ~json_top:Term.(const (Printf.sprintf ",\"seed\":%d") $ seed_arg)
    Term.(const check $ rules_arg $ seed_arg $ budget_arg $ oracle_forms_arg)

(* ---------------- report ---------------- *)

let report_cmd =
  let run path =
    match load_ruleset path (default_catalog ()) with
    | Ok rs ->
      let tr = P2v.Translate.translate rs in
      Format.printf "%a@." P2v.Report.pp (P2v.Report.of_translation tr);
      `Ok ()
    | Error msg ->
      prerr_endline msg;
      `Error (false, "translation failed")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Run the P2V pre-processor and print the translation report.")
    Term.(ret (const run $ file_arg))

(* ---------------- optimize and trace: the workload query ---------------- *)

let query_arg =
  Arg.(
    value & opt int 5
    & info [ "query"; "q" ] ~docv:"N" ~doc:"Workload query Q$(docv) (1-8).")

let joins_arg =
  Arg.(value & opt int 2 & info [ "joins"; "n" ] ~docv:"N" ~doc:"Number of joins.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Catalog seed.")

let ruleset_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "ruleset"; "r" ] ~docv:"FILE"
        ~doc:
          "Rule file to use instead of the embedded OODB rule set \
           (rules/open_oodb.prairie).  It is read and parsed as $(b,lint) \
           does: a read or parse failure is one P000 error.")

(* Build the query instance and its optimizer (the embedded OODB rule set
   or a rule file through P2V), and print the query header. *)
let workload_query qn joins seed ruleset_path =
  match W.Queries.of_int qn with
  | None -> Error "query number must be 1-8"
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
      Error "could not load the rule set"
    | Ok rs ->
      let opt = Opt.of_ruleset rs.Prairie.Ruleset.name rs in
      Format.printf "query %s (%d joins, seed %d): %a@." (W.Queries.name q)
        joins seed Prairie.Expr.pp inst.W.Queries.expr;
      Ok (inst.W.Queries.expr, opt))

let print_plan = function
  | Some plan ->
    Format.printf "@.best plan: %s@.@." (Explain.summary plan);
    Format.printf "%a" Explain.pp plan
  | None -> print_endline "no plan found"

(* ---------------- optimize ---------------- *)

let optimize_cmd =
  let strategy_arg =
    Arg.(
      value
      & opt (enum [ ("top-down", `Top_down); ("bottom-up", `Bottom_up) ]) `Top_down
      & info [ "strategy" ] ~docv:"STRATEGY"
          ~doc:"Search strategy: $(b,top-down) (Volcano) or $(b,bottom-up)                 (System R dynamic programming).")
  in
  let run qn joins seed ruleset_path strategy =
    match workload_query qn joins seed ruleset_path with
    | Error msg -> `Error (false, msg)
    | Ok (expr, opt) ->
      (match strategy with
      | `Top_down ->
        let r = Opt.optimize opt expr in
        print_plan r.Opt.plan;
        if r.Opt.plan <> None then
          Format.printf "@.%a@." Prairie_volcano.Stats.pp
            (Prairie_volcano.Search.stats r.Opt.search)
      | `Bottom_up -> (
        let expr, required = opt.Opt.prepare expr in
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
      `Ok ()
  in
  Cmd.v
    (Cmd.info "optimize" ~doc:"Optimize a workload query with a rule set.")
    Term.(
      ret
        (const run $ query_arg $ joins_arg $ seed_arg $ ruleset_arg
       $ strategy_arg))

(* ---------------- trace ---------------- *)

let trace_cmd =
  let capacity_arg =
    Arg.(
      value & opt int 65536
      & info [ "capacity" ] ~docv:"K"
          ~doc:
            "Ring-buffer capacity over spans and events: older entries \
             beyond K are dropped from the timeline that $(b,--out) dumps. \
             The per-rule account and the per-rule time aggregates stay \
             exact.")
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
             $(b,chrome) (spans and events as Chrome trace-event JSON, \
             loadable in chrome://tracing and Perfetto).")
  in
  let run qn joins seed ruleset_path capacity group_budget out format =
    if capacity < 1 then `Error (false, "--capacity must be at least 1")
    else
      match workload_query qn joins seed ruleset_path with
      | Error msg -> `Error (false, msg)
      | Ok (expr, opt) ->
        let sink = Span.create ~capacity () in
        let t0 = Unix.gettimeofday () in
        let r = Opt.optimize ?group_budget ~spans:sink opt expr in
        let wall_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
        print_plan r.Opt.plan;
        Format.printf "@.%a@." Explain.trace r.Opt.search;
        Format.printf "@.%a@." Explain.profile sink;
        let rooted_ms = Int64.to_float (Span.root_total_ns sink) /. 1e6 in
        Format.printf
          "wall %.3f ms, rooted spans account for %.3f ms (%.1f%%)@." wall_ms
          rooted_ms
          (if wall_ms > 0.0 then 100.0 *. rooted_ms /. wall_ms else 0.0);
        (match out with
        | None -> ()
        | Some dest ->
          let dump oc =
            output_string oc
              (match format with
              | `Jsonl -> Span.to_jsonl sink
              | `Chrome -> Span.to_chrome sink)
          in
          (match dest with
          | "-" -> dump stdout
          | path ->
            let oc = open_out path in
            Fun.protect ~finally:(fun () -> close_out oc) (fun () -> dump oc);
            Printf.printf
              "trace written to %s (%d events, %d spans, %d dropped)\n" path
              (Span.event_count sink) (Span.span_count sink)
              (Span.dropped sink)));
        `Ok ()
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Optimize a workload query under the span sink and explain the \
          search: the per-rule account of matches, applications and \
          rejections (with reasons), winner changes and memo behaviour — \
          why the plan was chosen, and why other rules never fired — and \
          the self/total time table of the search phases (explore, match, \
          apply, cost, enforcers, memo inserts) with per-rule attribution.")
    Term.(
      ret
        (const run $ query_arg $ joins_arg $ seed_arg $ ruleset_arg
       $ capacity_arg $ budget_arg $ out_arg $ format_arg))

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
      metrics_file telemetry_port linger slow_ms =
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
    | Some "-", Some m -> Metrics.output stdout m
    | Some path, Some m ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> Metrics.output oc m);
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
       $ telemetry_port_arg $ linger_arg $ slow_ms_arg))

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
  let run sql classes seed execute =
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
        (const run $ query_arg $ classes_arg $ seed_arg $ execute_arg))

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
            lint_cmd;
            analyze_cmd;
            verify_cmd;
            report_cmd;
            optimize_cmd;
            trace_cmd;
            serve_cmd;
            sql_cmd;
          ]))
