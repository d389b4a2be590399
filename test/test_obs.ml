(* The observability layer: search events on the span sink's ring, the
   metrics registry with its exporters, engine instrumentation, and the
   guarantee that attaching a sink never changes what the optimizer
   returns. *)

module Span = Prairie_obs.Span
module Metrics = Prairie_obs.Metrics
module Opt = Prairie_optimizers.Optimizers
module Search = Prairie_volcano.Search
module Explain = Prairie_volcano.Explain
module Plan = Prairie_volcano.Plan
module Pool = Prairie_service.Pool
module W = Prairie_workload

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))

let qtest name ?(count = 50) gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen prop)

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Events on the span sink: the ring buffer                            *)
(* ------------------------------------------------------------------ *)

let ev i = Span.Memo_hit { gid = i }
let payloads t =
  List.map (fun (i : Span.instant) -> i.Span.event) (Span.events t)

let test_ring_basics () =
  let t = Span.create ~capacity:8 () in
  checki "fresh count" 0 (Span.event_count t);
  checki "fresh length" 0 (Span.length t);
  for i = 0 to 4 do
    Span.emit t (ev i)
  done;
  checki "event count" 5 (Span.event_count t);
  checki "length" 5 (Span.length t);
  checki "dropped" 0 (Span.dropped t);
  checki "capacity" 8 (Span.capacity t);
  (* oldest first, contiguous sequence numbers from 0, outside any span *)
  List.iteri
    (fun i (e : Span.instant) ->
      checki "seq order" i e.Span.seq;
      checki "no open span" (-1) e.Span.span;
      check "payload order" true (e.Span.event = ev i))
    (Span.events t)

let test_ring_wraparound () =
  let t = Span.create ~capacity:4 () in
  for i = 0 to 9 do
    Span.emit t (ev i)
  done;
  checki "count includes drops" 10 (Span.event_count t);
  checki "length capped" 4 (Span.length t);
  checki "dropped = overflow" 6 (Span.dropped t);
  (* the survivors are the newest four, oldest first, seqs 6..9 *)
  checki "events retained" 4 (List.length (Span.events t));
  List.iteri
    (fun i (e : Span.instant) ->
      checki "wrapped seq" (6 + i) e.Span.seq;
      check "wrapped payload" true (e.Span.event = ev (6 + i)))
    (Span.events t);
  Span.clear t;
  checki "cleared count" 0 (Span.event_count t);
  checki "cleared length" 0 (Span.length t);
  check "cleared events" true (Span.events t = [])

let test_ring_min_capacity () =
  (* capacity is clamped to >= 1, and a 1-slot ring keeps the newest *)
  let t = Span.create ~capacity:0 () in
  checki "clamped capacity" 1 (Span.capacity t);
  Span.emit t (ev 1);
  Span.emit t (ev 2);
  check "newest survives" true (payloads t = [ ev 2 ]);
  checki "with its seq" 1 (List.hd (Span.events t)).Span.seq

let test_jsonl () =
  let t = Span.create () in
  Span.emit t (Span.Group_created { gid = 0 });
  let root = Span.enter t Span.Optimize in
  Span.emit t ~span:root
    (Span.Trans_rejected
       { rule = "join-assoc"; gid = 3; reason = Span.Pruned 12.5 });
  Span.exit t root;
  Span.emit t
    (Span.Winner_changed
       { gid = 1; alg = "file_scan"; old_cost = None; new_cost = 4.0 });
  let lines = String.split_on_char '\n' (String.trim (Span.to_jsonl t)) in
  checki "one line per event, spans excluded" 3 (List.length lines);
  List.iter
    (fun line ->
      check "line is an object" true
        (String.length line > 1 && line.[0] = '{'
        && line.[String.length line - 1] = '}'))
    lines;
  (* one counter numbers spans and events: the root span took seq 1 *)
  List.iter2
    (fun line (seq, span) ->
      check "line carries seq" true
        (contains line (Printf.sprintf "\"seq\":%d,\"span\":%d" seq span)))
    lines
    [ (0, -1); (2, 1); (3, -1) ];
  check "kind tag" true (contains (List.nth lines 0) "\"group_created\"");
  check "reason + annotation" true
    (contains (List.nth lines 1) "\"reason\":\"pruned\""
    && contains (List.nth lines 1) "12.5");
  check "absent old cost is null" true
    (contains (List.nth lines 2) "\"old_cost\":null")

(* The JSON encoding of names and costs, through the event encoder. *)
let test_json_helpers () =
  let json event =
    Span.event_to_json { Span.seq = 0; at_ns = 0L; span = -1; event }
  in
  let rule_json rule = json (Span.Trans_applied { rule; gid = 0; fresh = true }) in
  check "escaping" true
    (contains (rule_json "a\\b\"c\nd") "\"a\\\\b\\\"c\\nd\"");
  check "control chars" true (contains (rule_json "\007") "\"\\u0007\"");
  let cost old_cost new_cost =
    json (Span.Winner_changed { gid = 0; alg = "a"; old_cost; new_cost })
  in
  check "inf" true (contains (cost None infinity) "\"new_cost\":\"inf\"");
  check "neg inf" true
    (contains (cost (Some neg_infinity) 1.0) "\"old_cost\":\"-inf\"");
  check "finite round-trip" true (contains (cost None 12.5) "\"new_cost\":12.5}")

(* ------------------------------------------------------------------ *)
(* Metrics: instruments                                                *)
(* ------------------------------------------------------------------ *)

let test_counter_gauge () =
  let m = Metrics.create () in
  let c = Metrics.counter m "requests" in
  Metrics.inc c;
  Metrics.inc ~by:4 c;
  checki "counter" 5 (Metrics.counter_value c);
  (* registration is idempotent: same (name, labels) -> same cell *)
  let c' = Metrics.counter m "requests" in
  Metrics.inc c';
  checki "shared cell" 6 (Metrics.counter_value c);
  (* different labels -> different cell *)
  let cl = Metrics.counter m ~labels:[ ("ruleset", "r1") ] "requests" in
  checki "labelled cell is fresh" 0 (Metrics.counter_value cl);
  (* label order does not matter for identity *)
  let g =
    Metrics.gauge m ~labels:[ ("a", "1"); ("b", "2") ] "depth"
  in
  Metrics.set g 3.5;
  let g' =
    Metrics.gauge m ~labels:[ ("b", "2"); ("a", "1") ] "depth"
  in
  checkf "label order ignored" 3.5 (Metrics.gauge_value g');
  (* same name, different kind: refused *)
  check "kind mismatch raises" true
    (try
       ignore (Metrics.gauge m "requests");
       false
     with Invalid_argument _ -> true);
  check "negative inc raises" true
    (try
       Metrics.inc ~by:(-1) c;
       false
     with Invalid_argument _ -> true)

let test_histogram_buckets () =
  let m = Metrics.create () in
  let h = Metrics.histogram m ~buckets:[ 4.0; 1.0; 2.0; 2.0 ] "lat" in
  (* bounds are sorted and deduplicated; v <= bound is inclusive *)
  List.iter (Metrics.observe h) [ 1.0; 1.5; 4.0; 5.0 ];
  checki "count" 4 (Metrics.histogram_count h);
  checkf "sum" 11.5 (Metrics.histogram_sum h);
  (match Metrics.buckets h with
  | [ (b1, c1); (b2, c2); (b4, c4); (binf, cinf) ] ->
    checkf "bound 1" 1.0 b1;
    checki "le 1.0 (inclusive)" 1 c1;
    checkf "bound 2" 2.0 b2;
    checki "le 2.0" 2 c2;
    checkf "bound 4" 4.0 b4;
    checki "le 4.0 (boundary lands low)" 3 c4;
    check "last bound is +Inf" true (b4 < binf && binf = infinity);
    checki "+Inf sees all" 4 cinf
  | l -> Alcotest.failf "expected 4 buckets, got %d" (List.length l));
  (* log_buckets: 20 exponentially spaced bounds from 10us *)
  let bounds = Metrics.log_buckets () in
  checki "default count" 20 (List.length bounds);
  checkf "default start" 1e-5 (List.hd bounds);
  List.iter2
    (fun lo hi -> checkf "doubling" 2.0 (hi /. lo))
    (List.filteri (fun i _ -> i < 19) bounds)
    (List.tl bounds)

let test_prometheus_export () =
  let m = Metrics.create () in
  let c =
    Metrics.counter m ~help:"how \\ many \"things\"\nseen"
      ~labels:[ ("q", "a\\b\"c\nd") ]
      "prairie_things_total"
  in
  Metrics.inc ~by:3 c;
  let h = Metrics.histogram m ~buckets:[ 0.5 ] "prairie_lat_seconds" in
  Metrics.observe h 0.25;
  Metrics.observe h 0.75;
  let text = Metrics.to_prometheus m in
  check "help present+escaped" true
    (contains text
       "# HELP prairie_things_total how \\\\ many \"things\"\\nseen");
  check "type line" true (contains text "# TYPE prairie_things_total counter");
  (* label values escape backslash, quote and newline *)
  check "label escaping" true
    (contains text "prairie_things_total{q=\"a\\\\b\\\"c\\nd\"} 3");
  check "histogram type" true
    (contains text "# TYPE prairie_lat_seconds histogram");
  check "finite bucket" true
    (contains text "prairie_lat_seconds_bucket{le=\"0.5\"} 1");
  check "+Inf bucket" true
    (contains text "prairie_lat_seconds_bucket{le=\"+Inf\"} 2");
  check "sum series" true (contains text "prairie_lat_seconds_sum 1");
  check "count series" true (contains text "prairie_lat_seconds_count 2");
  (* JSONL: one object per instrument *)
  let lines = String.split_on_char '\n' (String.trim (Metrics.to_jsonl m)) in
  checki "jsonl lines" 2 (List.length lines);
  List.iter
    (fun l -> check "jsonl object" true (l.[0] = '{' && contains l "\"name\":"))
    lines

(* ------------------------------------------------------------------ *)
(* Engine instrumentation                                              *)
(* ------------------------------------------------------------------ *)

let catalog =
  W.Catalogs.make (W.Catalogs.default_spec ~classes:3 ~indexed:true ~seed:7)

let opt = lazy (Opt.oodb_prairie catalog)

let two_join_expr () = W.Expressions.build W.Expressions.E1 catalog ~joins:2

let test_trace_event_order () =
  let sink = Span.create () in
  let r = Opt.optimize ~spans:sink (Lazy.force opt) (two_join_expr ()) in
  let events = payloads sink in
  check "something was recorded" true (events <> []);
  checki "nothing dropped at default capacity" 0 (Span.dropped sink);
  (* the first event of a fresh search is the root group appearing *)
  (match events with
  | Span.Group_created { gid = 0 } :: _ -> ()
  | e :: _ -> Alcotest.failf "first event was %s" (Span.kind e)
  | [] -> Alcotest.fail "empty trace");
  (* groups appear before anything references them *)
  let seen = Hashtbl.create 64 in
  let born g = Hashtbl.mem seen g in
  List.iter
    (fun e ->
      match e with
      | Span.Group_created { gid } -> Hashtbl.replace seen gid ()
      | Span.Trans_matched { gid; _ }
      | Span.Trans_applied { gid; _ }
      | Span.Trans_rejected { gid; _ }
      | Span.Impl_matched { gid; _ }
      | Span.Impl_applied { gid; _ }
      | Span.Impl_rejected { gid; _ }
      | Span.Enforcer_inserted { gid; _ }
      | Span.Memo_hit { gid }
      | Span.Winner_changed { gid; _ } ->
        check (Printf.sprintf "gid %d born before %s" gid (Span.kind e)) true
          (born gid)
      | Span.Groups_merged { survivor; dead } ->
        check "merge of born groups" true (born survivor && born dead)
      | Span.Budget_hit _ -> ())
    events;
  (* the memo's net group count matches created - merged *)
  let count p = List.length (List.filter p events) in
  let created = count (function Span.Group_created _ -> true | _ -> false) in
  let merged = count (function Span.Groups_merged _ -> true | _ -> false) in
  checki "created - merged = memo size" (Search.group_count r.Opt.search)
    (created - merged);
  (* a plan was found, so the root has a winner; winners always improve *)
  check "winner recorded" true
    (count (function Span.Winner_changed _ -> true | _ -> false) > 0);
  List.iter
    (fun e ->
      match e with
      | Span.Winner_changed { old_cost = Some old; new_cost; _ } ->
        check "winner cost improves" true (new_cost < old)
      | _ -> ())
    events;
  (* applications never outnumber matches, per rule *)
  let tally f =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun e ->
        match f e with
        | Some (rule, n) ->
          Hashtbl.replace tbl rule
            (n + Option.value ~default:0 (Hashtbl.find_opt tbl rule))
        | None -> ())
      events;
    tbl
  in
  let matched =
    tally (function
      | Span.Trans_matched { rule; bindings; _ } -> Some (rule, bindings)
      | _ -> None)
  in
  let applied =
    tally (function
      | Span.Trans_applied { rule; _ } -> Some (rule, 1)
      | _ -> None)
  in
  Hashtbl.iter
    (fun rule n ->
      check
        (Printf.sprintf "%s applied <= matched bindings" rule)
        true
        (n <= Option.value ~default:0 (Hashtbl.find_opt matched rule)))
    applied

let test_explain_trace_render () =
  let sink = Span.create () in
  ignore (Opt.optimize ~spans:sink (Lazy.force opt) (two_join_expr ()));
  let s = Explain.trace_to_string sink in
  check "summary line" true (contains s "search trace:");
  check "totals line" true (contains s "groups created");
  check "trans table" true (contains s "transformation rules:");
  check "impl table" true (contains s "implementation rules:");
  check "winner line" true (contains s "last winner:");
  (* a synthetic trace exercises the never-applied callout deterministically *)
  let t = Span.create () in
  Span.emit t (Span.Group_created { gid = 0 });
  Span.emit t (Span.Trans_matched { rule = "r-dead"; gid = 0; bindings = 2 });
  Span.emit t
    (Span.Trans_rejected
       { rule = "r-dead"; gid = 0; reason = Span.Test_failed });
  Span.emit t
    (Span.Trans_rejected
       { rule = "r-dead"; gid = 0; reason = Span.Test_failed });
  let s = Explain.trace_to_string t in
  check "never-applied callout" true
    (contains s "r-dead matched 2 times but never applied");
  check "rejection reason" true (contains s "test failed");
  check "no-winner note" true (contains s "no winner was ever recorded")

let test_trace_budget_and_memo_hits () =
  let sink = Span.create () in
  let r =
    Opt.optimize ~group_budget:2 ~spans:sink (Lazy.force opt)
      (two_join_expr ())
  in
  check "budget was hit" true (Search.budget_was_hit r.Opt.search);
  let events = payloads sink in
  check "budget event emitted" true
    (List.exists (function Span.Budget_hit _ -> true | _ -> false) events);
  check "budget event emitted once" true
    (1
    = List.length
        (List.filter (function Span.Budget_hit _ -> true | _ -> false) events));
  (* re-optimizing the same search is answered from the memo *)
  let before = List.length events in
  ignore (Search.optimize r.Opt.search (two_join_expr ()));
  check "memo hit on re-optimization" true
    (List.exists
       (function Span.Memo_hit _ -> true | _ -> false)
       (List.filteri (fun i _ -> i >= before) (payloads sink)))

let digest plan =
  match plan with
  | Some p -> Prairie.Expr.fingerprint (Plan.to_expr p)
  | None -> ""

let gen_request =
  QCheck2.Gen.(
    let* family = oneofl W.Expressions.[ E1; E2; E3 ] in
    let* joins = 1 -- 2 in
    return (W.Expressions.build family catalog ~joins))

let prop_trace_is_pure =
  qtest "tracing changes neither plan nor cost" ~count:30 gen_request
    (fun expr ->
      let plain = Opt.optimize (Lazy.force opt) expr in
      let sink = Span.create () in
      let traced = Opt.optimize ~spans:sink (Lazy.force opt) expr in
      Float.equal plain.Opt.cost traced.Opt.cost
      && String.equal (digest plain.Opt.plan) (digest traced.Opt.plan))

(* ------------------------------------------------------------------ *)
(* Service telemetry                                                   *)
(* ------------------------------------------------------------------ *)

let test_serve_metrics () =
  let m = Metrics.create () in
  let cache = Opt.Plan_cache.create ~capacity:32 () in
  let o = Lazy.force opt in
  let distinct =
    [
      Opt.request (W.Expressions.build W.Expressions.E1 catalog ~joins:1);
      Opt.request (W.Expressions.build W.Expressions.E1 catalog ~joins:2);
      Opt.request (W.Expressions.build W.Expressions.E2 catalog ~joins:1);
    ]
  in
  let batch = distinct @ distinct in
  ignore (Opt.serve ~jobs:2 ~cache ~metrics:m o batch);
  let counter name =
    Metrics.counter_value
      (Metrics.counter m ~labels:[ ("ruleset", o.Opt.name) ] name)
  in
  checki "requests counted" 6 (counter "prairie_serve_requests_total");
  checki "one search per distinct fingerprint" 3
    (counter "prairie_serve_searches_total");
  checki "the rest came from shared state" 3
    (counter "prairie_serve_cache_served_total");
  checkf "dedup ratio of the last batch" 0.5
    (Metrics.gauge_value
       (Metrics.gauge m ~labels:[ ("ruleset", o.Opt.name) ]
          "prairie_serve_batch_dedup_ratio"));
  checki "per-search histogram saw each search" 3
    (Metrics.histogram_count
       (Metrics.histogram m ~labels:[ ("ruleset", o.Opt.name) ]
          "prairie_serve_search_seconds"));
  checki "batch histogram saw the batch" 1
    (Metrics.histogram_count
       (Metrics.histogram m ~labels:[ ("ruleset", o.Opt.name) ]
          "prairie_serve_batch_seconds"));
  checkf "cache entries gauge" 3.0
    (Metrics.gauge_value (Metrics.gauge m "prairie_plan_cache_entries"));
  (* a warm second batch is answered by the cache *)
  ignore (Opt.serve ~jobs:2 ~cache ~metrics:m o batch);
  checki "warm batch ran no searches" 3
    (counter "prairie_serve_searches_total");
  checkf "warm dedup ratio" 1.0
    (Metrics.gauge_value
       (Metrics.gauge m ~labels:[ ("ruleset", o.Opt.name) ]
          "prairie_serve_batch_dedup_ratio"));
  (* the export is self-consistent *)
  let text = Metrics.to_prometheus m in
  check "export mentions every family" true
    (List.for_all
       (fun n -> contains text n)
       [
         "prairie_serve_requests_total";
         "prairie_serve_search_seconds_bucket";
         "prairie_pool_worker_jobs_total";
         "prairie_plan_cache_hit_rate";
       ])

(* Descriptors are plain values: serving exports no descriptor-pool family. *)
let test_serve_no_descriptor_pool () =
  let m = Metrics.create () in
  let o = Lazy.force opt in
  ignore
    (Opt.serve ~metrics:m o
       [ Opt.request (W.Expressions.build W.Expressions.E1 catalog ~joins:1) ]);
  let text = Metrics.to_prometheus m in
  check "served" true (contains text "prairie_serve_requests_total");
  check "no descriptor pool gauges" false
    (contains text "prairie_descriptor_pool_")

let test_pool_on_item () =
  let mu = Mutex.create () in
  let per_worker = Hashtbl.create 8 in
  let on_item ~worker =
    Mutex.lock mu;
    Hashtbl.replace per_worker worker
      (1 + Option.value ~default:0 (Hashtbl.find_opt per_worker worker));
    Mutex.unlock mu
  in
  let items = List.init 20 Fun.id in
  let out = Pool.map ~jobs:3 ~on_item (fun x -> x * x) items in
  check "map unchanged" true (out = List.map (fun x -> x * x) items);
  let total = Hashtbl.fold (fun _ n acc -> n + acc) per_worker 0 in
  checki "every item reported exactly once" 20 total;
  Hashtbl.iter
    (fun w _ -> check "worker index in range" true (w >= 0 && w < 3))
    per_worker;
  (* sequential path: everything is worker 0 *)
  Hashtbl.reset per_worker;
  ignore (Pool.map ~jobs:1 ~on_item Fun.id items);
  checki "sequential = worker 0" 20
    (Option.value ~default:0 (Hashtbl.find_opt per_worker 0));
  checki "no other workers" 1 (Hashtbl.length per_worker)

let suites =
  [
    ( "obs.trace",
      [
        Alcotest.test_case "ring basics" `Quick test_ring_basics;
        Alcotest.test_case "ring wraparound" `Quick test_ring_wraparound;
        Alcotest.test_case "min capacity" `Quick test_ring_min_capacity;
        Alcotest.test_case "jsonl encoding" `Quick test_jsonl;
        Alcotest.test_case "json helpers" `Quick test_json_helpers;
      ] );
    ( "obs.metrics",
      [
        Alcotest.test_case "counters and gauges" `Quick test_counter_gauge;
        Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
        Alcotest.test_case "prometheus export" `Quick test_prometheus_export;
      ] );
    ( "obs.engine",
      [
        Alcotest.test_case "trace event order (2-join E1)" `Quick
          test_trace_event_order;
        Alcotest.test_case "explain renders the account" `Quick
          test_explain_trace_render;
        Alcotest.test_case "budget-hit event" `Quick
          test_trace_budget_and_memo_hits;
        prop_trace_is_pure;
      ] );
    ( "obs.service",
      [
        Alcotest.test_case "serve populates the registry" `Quick
          test_serve_metrics;
        Alcotest.test_case "pool on_item telemetry" `Quick test_pool_on_item;
        Alcotest.test_case "no descriptor pool gauges" `Quick
          test_serve_no_descriptor_pool;
      ] );
  ]
