(* The serve-mix workload: SQL text through the query front end and the
   plan service.  One closed-loop client sends 16-request batches drawn
   Zipf-skewed from 200 generated queries; every 100th batch is preceded
   by a write (new catalog statistics, a new optimizer, plan-cache
   invalidation).

   The timed batches run on one worker.  With two, every batch that
   misses twice spawns a domain, and on a host whose other tenants load
   the second core the batch latency moved by up to 90% between runs of
   the same seed; the traced pass runs the pool at two workers instead. *)

module W = Prairie_workload
module Opt = Prairie_optimizers.Optimizers
module Query = Prairie_query.Query
module Metrics = Prairie_obs.Metrics
module Plan_cache = Opt.Plan_cache
module Descriptor = Prairie.Descriptor
open Measure

let classes = 5
let distinct_queries = 200
let batch_size = 16
let write_every = 100
let cache_capacity = 64
let zipf_s = 1.0
let pool_jobs = 2
let traced_batches = 600

(* Query [r] (its Zipf rank) joins [1 + r mod 4] consecutive classes and
   orders its result when [r mod 3 = 0], so every seed gets the same mix
   of sizes at every popularity.  Its one selection compares with the
   constant [r], which keeps the 200 queries distinct (and the cache's
   hit rate a property of the Zipf draw alone); which classes, which one
   is selected and which one orders vary with the seed. *)
let generate_sql rng r =
  let joins = 1 + (r mod 4) in
  let first = 1 + Random.State.int rng (classes - joins) in
  let tables = List.init (joins + 1) (fun k -> first + k) in
  let c i = W.Catalogs.class_name i in
  let pick () = List.nth tables (Random.State.int rng (List.length tables)) in
  let join_preds =
    List.filter_map
      (fun i ->
        if i < first + joins then Some (Printf.sprintf "%s.rC%d = %s.oid" (c i) i (c (i + 1)))
        else None)
      tables
  in
  let selection =
    let i = pick () in
    Printf.sprintf "%s.bC%d = %d" (c i) i r
  in
  let order_by =
    if r mod 3 = 0 then
      let i = pick () in
      Printf.sprintf " order by %s.bC%d" (c i) i
    else ""
  in
  Printf.sprintf "select * from %s where %s%s"
    (String.concat ", " (List.map c tables))
    (String.concat " and " (join_preds @ [ selection ]))
    order_by

(* Inverse-CDF sampling of ranks [0, n) with P(r) proportional to
   1 / (r + 1)^s. *)
let zipf_sampler n s =
  let weights = Array.init n (fun r -> 1.0 /. (float_of_int (r + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let cdf = Array.make n 0.0 in
  ignore
    (Array.fold_left
       (fun (i, acc) w ->
         let acc = acc +. (w /. total) in
         cdf.(i) <- acc;
         (i + 1, acc))
       (0, 0.0) weights);
  fun rng ->
    let u = Random.State.float rng 1.0 in
    let rec search lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if cdf.(mid) < u then search (mid + 1) hi else search lo mid
    in
    min (n - 1) (search 0 (n - 1))

type state = {
  sql : string array;
  draw : Random.State.t -> int;
  rng : Random.State.t;  (** the request stream *)
  cache : Plan_cache.t;
  mutable catalog : Prairie_catalog.Catalog.t;
  mutable opt : Opt.t;
  mutable batches : int;  (** since the last write *)
  mutable writes : int;
}

(* The statistics each write installs cycle through fixed catalogs, as in
   the search workloads: a seed-drawn catalog can multiply the cost of
   every 4-join search. *)
let catalog_seeds = [| 101; 202; 303; 404; 505; 606; 707; 808 |]

let catalog_for writes =
  W.Catalogs.make
    (W.Catalogs.default_spec ~classes ~indexed:true
       ~seed:catalog_seeds.(writes mod Array.length catalog_seeds))

(* New statistics invalidate every cached plan of the rule set. *)
let write st =
  st.writes <- st.writes + 1;
  st.catalog <- catalog_for st.writes;
  st.opt <- Opt.oodb_prairie st.catalog;
  Plan_cache.invalidate st.cache ~ruleset:st.opt.Opt.name;
  st.batches <- 0

(* The next batch, after the write that is due before it (returning the
   write's duration in ms, if one ran). *)
let next_batch st =
  let reload =
    if st.batches >= write_every then Some (snd (time_ms (fun () -> write st))) else None
  in
  st.batches <- st.batches + 1;
  (reload, List.init batch_size (fun _ -> st.sql.(st.draw st.rng)))

let serve ?metrics ~jobs st exprs =
  Opt.serve ~jobs ~search_jobs:1 ~cache:st.cache ?metrics st.opt
    (List.map Opt.request exprs)

(* One batch as the caller sees it: SQL text in, plans out. *)
let run_batch ?(jobs = 1) st sqls =
  serve ~jobs st (List.map (Query.compile_string st.catalog) sqls)

let no_plan served = List.length (List.filter (fun s -> s.Opt.plan = None) served)

(* Two stretches of [traced_batches] batches on the two-worker pool: one
   untraced, as the reference, then one traced with a fresh metrics
   registry (the service reports its latency histograms, worker counters
   and cache gauges) and with the front-end calls and query preparation
   timed around each request. *)
let traced_pass st =
  let plain = Samples.create () in
  for _ = 1 to traced_batches do
    let _, sqls = next_batch st in
    Samples.add plain (snd (time_ms (fun () -> run_batch ~jobs:pool_jobs st sqls)))
  done;
  let m = Metrics.create () in
  let parse_ns = ref 0.0 and compile_ns = ref 0.0 and prepare_ns = ref 0.0 in
  let requests = ref 0 in
  let reloads = Samples.create () and batch_ms = Samples.create () in
  let c0 = Plan_cache.stats st.cache in
  let pool0 = Descriptor.pool_stats () in
  for _ = 1 to traced_batches do
    let reload, sqls = next_batch st in
    Option.iter (Samples.add reloads) reload;
    let _, ms =
      time_ms (fun () ->
          let exprs =
            List.map
              (fun sql ->
                let q = add_ns parse_ns (fun () -> Query.parse st.catalog sql) in
                let e = add_ns compile_ns (fun () -> Query.compile st.catalog q) in
                ignore (add_ns prepare_ns (fun () -> st.opt.Opt.prepare e));
                e)
              sqls
          in
          serve ~metrics:m ~jobs:pool_jobs st exprs)
    in
    Samples.add batch_ms ms;
    requests := !requests + batch_size
  done;
  let c1 = Plan_cache.stats st.cache in
  let pool1 = Descriptor.pool_stats () in
  let labels = [ ("ruleset", st.opt.Opt.name) ] in
  let search = Metrics.histogram m ~labels "prairie_serve_search_seconds" in
  let served_shared =
    Metrics.counter_value (Metrics.counter m ~labels "prairie_serve_cache_served_total")
  in
  let worker w =
    float_of_int
      (Metrics.counter_value
         (Metrics.counter m
            ~labels:(labels @ [ ("worker", string_of_int w) ])
            "prairie_pool_worker_jobs_total"))
  in
  let workers = List.init pool_jobs worker in
  let hits = c1.Plan_cache.hits - c0.Plan_cache.hits in
  let lookups = hits + c1.Plan_cache.misses - c0.Plan_cache.misses in
  let n = float_of_int !requests in
  let pool_hits = pool1.Descriptor.hits - pool0.Descriptor.hits in
  let pool_lookups = pool_hits + pool1.Descriptor.misses - pool0.Descriptor.misses in
  let plain_p50 = median (Samples.to_array plain) in
  let rules = st.opt.Opt.volcano in
  [
    ("p2v.trans_rules", float_of_int (List.length rules.Prairie_volcano.Rule.rs_trans));
    ("p2v.impl_rules", float_of_int (List.length rules.Prairie_volcano.Rule.rs_impl));
    ("query.parse_us", !parse_ns /. 1e3 /. n);
    ("query.compile_us", !compile_ns /. 1e3 /. n);
    ("optimizers.prepare_us", !prepare_ns /. 1e3 /. n);
    ("core.descriptor_pool_hit_rate", ratio (float_of_int pool_hits) (float_of_int pool_lookups));
    ("service.cache_hit_rate", ratio (float_of_int hits) (float_of_int lookups));
    ("service.cache_evictions", float_of_int (c1.Plan_cache.evictions - c0.Plan_cache.evictions));
    ( "service.cache_invalidations",
      float_of_int (c1.Plan_cache.invalidations - c0.Plan_cache.invalidations) );
    ("service.dedup_ratio", ratio (float_of_int (served_shared - hits)) n);
    ( "service.worker_max_share",
      ratio (List.fold_left Float.max 0.0 workers) (List.fold_left ( +. ) 0.0 workers) );
    ("service.search_p50_ms", 1000.0 *. Metrics.quantile search 0.5);
    ("service.search_p99_ms", 1000.0 *. Metrics.quantile search 0.99);
    ("service.reload_ms", median (Samples.to_array reloads));
    ("service.pool_batch_p50_ms", plain_p50);
    ( "obs.trace_overhead_pct",
      100.0 *. ((median (Samples.to_array batch_ms) /. plain_p50) -. 1.0) );
  ]

(* Served plans equal fresh searches: every query of the mix once, then the
   most popular half-cache's worth twice, so that the second round comes
   from the warm cache. *)
let check st =
  let rec serve_all sqls =
    match List.filteri (fun i _ -> i < batch_size) sqls with
    | [] -> []
    | b -> run_batch st b @ serve_all (List.filteri (fun i _ -> i >= batch_size) sqls)
  in
  let all = Array.to_list st.sql in
  let hot = List.filteri (fun i _ -> i < cache_capacity / 2) all in
  let cold = serve_all all in
  ignore (serve_all hot);
  let warm = serve_all hot in
  let bad =
    List.filter_map
      (fun (s : Opt.served) ->
        let fresh = Opt.optimize ~search_jobs:1 st.opt s.Opt.request.Opt.expr in
        if
          s.Opt.plan <> None
          && Workload.same_cost s.Opt.cost fresh.Opt.cost
          && String.equal (Workload.plan_digest s.Opt.plan) (Workload.plan_digest fresh.Opt.plan)
        then None
        else
          Some
            (Printf.sprintf "served plan differs from a fresh search (cost %.6f vs %.6f)"
               s.Opt.cost fresh.Opt.cost))
      (cold @ warm)
  in
  let from_cache = List.length (List.filter (fun s -> s.Opt.cache_hit) warm) in
  {
    Workload.checked = List.length cold + List.length warm;
    mismatches = bad;
    notes =
      [
        Printf.sprintf
          "plan service: %d requests equal fresh searches; %d of the %d warm-round \
           answers came from the cache"
          (List.length cold + List.length warm)
          from_cache (List.length warm);
      ];
    c_layers = [];
  }

let setup ~seed =
  let rng = Random.State.make [| seed |] in
  let sql = Array.init distinct_queries (generate_sql rng) in
  let catalog = catalog_for 0 in
  let st =
    {
      sql;
      draw = zipf_sampler distinct_queries zipf_s;
      rng;
      cache = Plan_cache.create ~capacity:cache_capacity ();
      catalog;
      opt = Opt.oodb_prairie catalog;
      batches = 0;
      writes = 0;
    }
  in
  (* warm-up: one write cycle *)
  for _ = 1 to write_every do
    ignore (run_batch st (snd (next_batch st)))
  done;
  let measure ~seconds =
    let lat = Samples.create () in
    let attempted = ref 0 and failed = ref 0 and busy = ref 0.0 in
    let t0 = now_ns () in
    while !attempted = 0 || seconds_since t0 < seconds do
      let reload, sqls = next_batch st in
      Option.iter (fun ms -> busy := !busy +. (ms /. 1000.0)) reload;
      attempted := !attempted + batch_size;
      match Workload.attempt ~failed (fun () -> time_ms (fun () -> run_batch st sqls)) with
      | Some (served, ms) ->
        let missing = no_plan served in
        failed := !failed + missing;
        if missing = 0 then Samples.add lat ms;
        busy := !busy +. (ms /. 1000.0)
      | None -> (* [attempt] counted one; the whole batch is lost *)
        failed := !failed + batch_size - 1
    done;
    let latencies_ms = Samples.to_array lat in
    {
      Workload.latencies_ms;
      items = batch_size * Array.length latencies_ms;
      busy_s = !busy;
      attempted = !attempted;
      failed = !failed;
      m_layers = [];
    }
  in
  { Workload.trace = (fun () -> traced_pass st); measure; check = (fun () -> check st) }

let spec =
  {
    Workload.name = "serve-mix";
    op =
      "one 16-request batch: SQL text through Query.compile_string and Optimizers.serve, \
       1 worker";
    item = "request";
    setup;
  }
