module Descriptor = Prairie.Descriptor
module Search = Prairie_volcano.Search
module Plan = Prairie_volcano.Plan
module Metrics = Prairie_obs.Metrics
module Slow_log = Prairie_obs.Slow_log

type t = {
  name : string;
  volcano : Prairie_volcano.Rule.ruleset;
  prepare : Prairie.Expr.t -> Prairie.Expr.t * Descriptor.t;
}

type outcome = {
  plan : Plan.t option;
  cost : float;
  search : Search.t;
}

let of_ruleset name rs =
  let tr = Prairie_p2v.Translate.translate rs in
  {
    name;
    volcano = tr.Prairie_p2v.Translate.volcano;
    prepare = Prairie_p2v.Translate.prepare_query tr;
  }

let relational_ruleset = Prairie_algebra.Relational.ruleset
let oodb_ruleset = Prairie_algebra.Oodb.ruleset

let oodb_prairie catalog = of_ruleset "oodb-prairie" (oodb_ruleset catalog)

let oodb_volcano catalog =
  {
    name = "oodb-volcano";
    volcano = Prairie_algebra.Oodb_volcano.ruleset catalog;
    prepare = Prairie_algebra.Oodb_volcano.prepare_query;
  }

let relational catalog = of_ruleset "relational" (relational_ruleset catalog)

(* ---------------- telemetry helpers ---------------- *)

(* All service metric names in one place; labels carry the rule-set name so
   several optimizers can share one registry. *)
let m_requests_total m ~ruleset =
  Metrics.counter m ~help:"Plan-service requests received"
    ~labels:[ ("ruleset", ruleset) ] "prairie_serve_requests_total"

let m_searches_total m ~ruleset =
  Metrics.counter m ~help:"Fresh Volcano searches the service ran"
    ~labels:[ ("ruleset", ruleset) ] "prairie_serve_searches_total"

let m_cache_served_total m ~ruleset =
  Metrics.counter m
    ~help:"Requests answered without a fresh search (cache or batch dedup)"
    ~labels:[ ("ruleset", ruleset) ] "prairie_serve_cache_served_total"

let m_dedup_ratio m ~ruleset =
  Metrics.gauge m
    ~help:"Last batch: fraction of requests served without a fresh search"
    ~labels:[ ("ruleset", ruleset) ] "prairie_serve_batch_dedup_ratio"

let m_search_seconds m ~ruleset =
  Metrics.histogram m ~help:"Per-search latency inside the plan service"
    ~labels:[ ("ruleset", ruleset) ] "prairie_serve_search_seconds"

let m_batch_seconds m ~ruleset =
  Metrics.histogram m ~help:"Whole-batch latency of Optimizers.serve"
    ~labels:[ ("ruleset", ruleset) ] "prairie_serve_batch_seconds"

let m_worker_jobs m ~ruleset ~worker =
  Metrics.counter m ~help:"Searches completed per pool worker"
    ~labels:[ ("ruleset", ruleset); ("worker", string_of_int worker) ]
    "prairie_pool_worker_jobs_total"

let m_winner_probes_total m ~ruleset =
  Metrics.counter m ~help:"Memo winner-table lookups"
    ~labels:[ ("ruleset", ruleset) ] "prairie_winner_probes_total"

let m_winner_hits_total m ~ruleset =
  Metrics.counter m ~help:"Memo winner-table lookups answered"
    ~labels:[ ("ruleset", ruleset) ] "prairie_winner_hits_total"

let winner_metrics m ~ruleset st =
  Metrics.inc ~by:st.Prairie_volcano.Stats.winner_probes
    (m_winner_probes_total m ~ruleset);
  Metrics.inc ~by:st.Prairie_volcano.Stats.winner_hits
    (m_winner_hits_total m ~ruleset)

let cache_metrics m cache =
  let s = Prairie_service.Plan_cache.stats cache in
  let set name help v =
    Metrics.set (Metrics.gauge m ~help name) v
  in
  set "prairie_plan_cache_hits" "Plan-cache lookup hits (lifetime)"
    (float_of_int s.Prairie_service.Plan_cache.hits);
  set "prairie_plan_cache_misses" "Plan-cache lookup misses (lifetime)"
    (float_of_int s.Prairie_service.Plan_cache.misses);
  set "prairie_plan_cache_evictions" "Plan-cache LRU evictions (lifetime)"
    (float_of_int s.Prairie_service.Plan_cache.evictions);
  set "prairie_plan_cache_entries" "Plan-cache current entry count"
    (float_of_int (Prairie_service.Plan_cache.length cache));
  set "prairie_plan_cache_hit_rate" "Plan-cache lifetime hit rate"
    (Prairie_service.Plan_cache.hit_rate cache)

let timed f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

let optimize ?group_budget ?search_jobs:_ ?(required = Descriptor.empty) ?spans
    t expr =
  let expr, req0 = t.prepare expr in
  let required = Descriptor.merge ~base:req0 ~overrides:required in
  let search = Search.create ?group_budget ?spans t.volcano in
  let plan = Search.optimize ~required search expr in
  let cost = match plan with Some p -> Plan.cost p | None -> infinity in
  { plan; cost; search }

(* ---------------- the plan service ---------------- *)

module Plan_cache = Prairie_service.Plan_cache
module Pool = Prairie_service.Pool

type request = { expr : Prairie.Expr.t; required : Descriptor.t }

let request ?(required = Descriptor.empty) expr = { expr; required }

type served = {
  request : request;
  fingerprint : string;
  plan : Plan.t option;
  cost : float;
  cache_hit : bool;
  groups : int;
  budget_hit : bool;
}

let serve_metered ?group_budget ?jobs ?cache ?metrics ?slow_log t batch =
  (* Preparation and fingerprinting are cheap; do them sequentially so the
     batch can be deduplicated before any search is dispatched. *)
  let prepared =
    List.map
      (fun req ->
        let expr, req0 = t.prepare req.expr in
        let required = Descriptor.merge ~base:req0 ~overrides:req.required in
        let fp = Prairie.Expr.fingerprint ~required expr in
        (req, expr, required, fp))
      batch
  in
  (* One cache lookup per request (so hit/miss accounting reflects real
     traffic), then one search per distinct missing fingerprint. *)
  let resolved = Hashtbl.create (List.length prepared) in
  let to_optimize = Hashtbl.create 16 in
  List.iter
    (fun (_, expr, required, fp) ->
      let cached =
        match cache with
        | Some c -> Plan_cache.find c ~ruleset:t.name ~fingerprint:fp
        | None -> None
      in
      match cached with
      | Some entry -> Hashtbl.replace resolved fp entry
      | None ->
        if not (Hashtbl.mem resolved fp || Hashtbl.mem to_optimize fp) then
          Hashtbl.add to_optimize fp (expr, required))
    prepared;
  let jobs_list =
    Hashtbl.fold (fun fp (expr, required) acc -> (fp, expr, required) :: acc)
      to_optimize []
  in
  let optimize_one (fp, expr, required) =
    let search = Search.create ?group_budget t.volcano in
    let plan, elapsed =
      timed (fun () -> Search.optimize ~required search expr)
    in
    (match metrics with
    | None -> ()
    | Some m ->
      Metrics.observe (m_search_seconds m ~ruleset:t.name) elapsed;
      winner_metrics m ~ruleset:t.name (Search.stats search));
    let cost = match plan with Some p -> Plan.cost p | None -> infinity in
    (match slow_log with
    | Some log ->
      (* Slow_log.observe applies the threshold itself; it is mutex-
         protected, so recording from pool workers is safe. *)
      Slow_log.observe log ~ruleset:t.name ~fingerprint:fp ~seconds:elapsed
        ~cost
        ~groups:(Search.group_count search)
        ~budget_hit:(Search.budget_was_hit search)
    | None -> ());
    let entry =
      {
        Plan_cache.plan;
        cost;
        groups = Search.group_count search;
        budget_hit = Search.budget_was_hit search;
      }
    in
    (match cache with
    | Some c -> Plan_cache.add c ~ruleset:t.name ~fingerprint:fp entry
    | None -> ());
    (fp, entry)
  in
  let on_item =
    match metrics with
    | None -> None
    | Some m ->
      Some (fun ~worker -> Metrics.inc (m_worker_jobs m ~ruleset:t.name ~worker))
  in
  List.iter
    (fun (fp, entry) -> Hashtbl.add resolved fp entry)
    (Pool.map ?jobs ?on_item optimize_one jobs_list);
  (* The first request carrying a freshly-searched fingerprint paid for the
     search; every other request was served from shared state. *)
  let owned = Hashtbl.create 16 in
  List.map
    (fun (request, _, _, fp) ->
      let entry = Hashtbl.find resolved fp in
      let fresh = Hashtbl.mem to_optimize fp && not (Hashtbl.mem owned fp) in
      if fresh then Hashtbl.add owned fp ();
      let cache_hit = not fresh in
      {
        request;
        fingerprint = fp;
        plan = entry.Plan_cache.plan;
        cost = entry.Plan_cache.cost;
        cache_hit;
        groups = entry.Plan_cache.groups;
        budget_hit = entry.Plan_cache.budget_hit;
      })
    prepared

let serve ?group_budget ?jobs ?search_jobs:_ ?cache ?metrics ?slow_log t batch =
  let served, elapsed =
    timed (fun () ->
        serve_metered ?group_budget ?jobs ?cache ?metrics ?slow_log t batch)
  in
  (match metrics with
  | None -> ()
  | Some m ->
    let requests = List.length served in
    let fresh =
      List.length (List.filter (fun s -> not s.cache_hit) served)
    in
    Metrics.inc ~by:requests (m_requests_total m ~ruleset:t.name);
    Metrics.inc ~by:fresh (m_searches_total m ~ruleset:t.name);
    Metrics.inc ~by:(requests - fresh) (m_cache_served_total m ~ruleset:t.name);
    Metrics.set (m_dedup_ratio m ~ruleset:t.name)
      (if requests = 0 then 0.0
       else float_of_int (requests - fresh) /. float_of_int requests);
    Metrics.observe (m_batch_seconds m ~ruleset:t.name) elapsed;
    match cache with Some c -> cache_metrics m c | None -> ());
  served
