(* The two search workloads, paper-figs and explode: Table 5 query
   instances optimized from a fresh memo, timed one [Optimizers.optimize]
   call at a time. *)

module W = Prairie_workload
module Opt = Prairie_optimizers.Optimizers
module Search = Prairie_volcano.Search
module Stats = Prairie_volcano.Stats
module Memo = Prairie_volcano.Memo
module Span = Prairie_obs.Span
module Descriptor = Prairie.Descriptor
module E = Prairie_executor
open Measure

type config = {
  shapes : (W.Queries.t * int list) list;  (** query and its join counts *)
  catalog_seeds : int list;  (** one catalog instance per shape and seed *)
  parallel_jobs : int option;
      (** also search at this many exploration domains, once per instance
          in the correctness pass: checked against search_jobs 1, timed *)
  handcoded : bool;  (** time the hand-coded optimizer alongside *)
  execute_joins : int;  (** executor checks on instances up to this size *)
  naive : W.Queries.t list;  (** naive-oracle checks at 1 join *)
}

type instance = {
  q : W.Queries.instance;
  prairie : Opt.t;
  volcano : Opt.t;  (** the hand-coded contestant *)
  mutable p_outcome : Opt.outcome option;  (** first timed Prairie search *)
  mutable v_outcome : Opt.outcome option;
  mutable best_p : float;  (** min-of-k latencies, ms *)
  mutable best_v : float;
}

let instances config =
  let make query joins cseed =
    let q = W.Queries.instance query ~joins ~seed:cseed in
    {
      q;
      prairie = Opt.oodb_prairie q.W.Queries.catalog;
      volcano = Opt.oodb_volcano q.W.Queries.catalog;
      p_outcome = None;
      v_outcome = None;
      best_p = infinity;
      best_v = infinity;
    }
  in
  Array.of_list
    (List.concat_map
       (fun (query, joins) ->
         List.concat_map
           (fun j -> List.map (make query j) config.catalog_seeds)
           joins)
       config.shapes)

let optimize ?spans ~search_jobs opt x =
  Opt.optimize ?spans ~search_jobs opt x.q.W.Queries.expr

let label x =
  Printf.sprintf "%s/%d joins/catalog %d"
    (W.Queries.name x.q.W.Queries.query)
    x.q.W.Queries.joins x.q.W.Queries.seed

(* ---------------- the traced pass ---------------- *)

(* One pass at search_jobs 1 over every instance.  Per instance: the
   query-preparation call timed on its own; one untraced search per
   contestant bracketed by [Gc.minor_words] (exact at jobs 1 once the
   warm-up has filled the descriptor pool); and one Prairie search under a
   span sink, whose per-phase aggregates give self times and span counts.
   Every value is reported per optimization.

   No parallel search runs here: on OCaml 5.1.1 a process that had run
   this pass over paper-figs and then mixed span-traced searches with
   search_jobs 2 searches aborted with "allocation failure during minor
   GC". *)
let traced_pass config xs =
  let n = float_of_int (Array.length xs) in
  let sink = Span.create ~capacity:1024 () in
  let prepare_ns = ref 0.0 in
  let words_p = ref 0.0 and words_v = ref 0.0 in
  let untraced_ms = ref 0.0 and traced_ms = ref 0.0 in
  let st = Stats.create () in
  let groups = ref 0 and lexprs = ref 0 in
  let pool0 = Descriptor.pool_stats () in
  let words f =
    let w0 = Gc.minor_words () in
    let v = f () in
    (v, Gc.minor_words () -. w0)
  in
  Array.iter
    (fun x ->
      ignore (add_ns prepare_ns (fun () -> x.prairie.Opt.prepare x.q.W.Queries.expr));
      let (_, ms), w =
        words (fun () -> time_ms (fun () -> optimize ~search_jobs:1 x.prairie x))
      in
      words_p := !words_p +. w;
      untraced_ms := !untraced_ms +. ms;
      if config.handcoded then
        words_v := !words_v +. snd (words (fun () -> optimize ~search_jobs:1 x.volcano x));
      let o, ms = time_ms (fun () -> optimize ~spans:sink ~search_jobs:1 x.prairie x) in
      traced_ms := !traced_ms +. ms;
      let s = Search.stats o.Opt.search in
      groups := !groups + Search.group_count o.Opt.search;
      lexprs := !lexprs + Memo.lexpr_count (Search.memo o.Opt.search);
      st.Stats.groups_merged <- st.Stats.groups_merged + s.Stats.groups_merged;
      st.Stats.lexprs_created <- st.Stats.lexprs_created + s.Stats.lexprs_created;
      st.Stats.lexpr_duplicates <- st.Stats.lexpr_duplicates + s.Stats.lexpr_duplicates;
      st.Stats.pruned <- st.Stats.pruned + s.Stats.pruned;
      st.Stats.impl_firings <- st.Stats.impl_firings + s.Stats.impl_firings;
      st.Stats.winner_probes <- st.Stats.winner_probes + s.Stats.winner_probes;
      st.Stats.winner_hits <- st.Stats.winner_hits + s.Stats.winner_hits)
    xs;
  let pool1 = Descriptor.pool_stats () in
  let phase p =
    List.fold_left
      (fun (count, self_ns, words) (a : Span.agg) ->
        if a.Span.a_phase = p then
          ( count + a.Span.a_count,
            Int64.add self_ns a.Span.a_self_ns,
            words +. a.Span.a_minor_words )
        else (count, self_ns, words))
      (0, 0L, 0.0) (Span.profile sink)
  in
  let self_ms p =
    let _, ns, _ = phase p in
    Int64.to_float ns /. 1e6 /. n
  in
  let count p =
    let c, _, _ = phase p in
    float_of_int c
  in
  let per_opt x = float_of_int x /. n in
  let pool_hits = pool1.Descriptor.hits - pool0.Descriptor.hits in
  let pool_misses = pool1.Descriptor.misses - pool0.Descriptor.misses in
  let apply_words =
    let _, _, w = phase Span.Apply in
    w /. n
  in
  let rules = xs.(0).prairie.Opt.volcano in
  [
    ("p2v.trans_rules", float_of_int (List.length rules.Prairie_volcano.Rule.rs_trans));
    ("p2v.impl_rules", float_of_int (List.length rules.Prairie_volcano.Rule.rs_impl));
    ("optimizers.prepare_us", !prepare_ns /. 1e3 /. n);
    ("volcano.explore_self_ms", self_ms Span.Explore);
    ("volcano.match_self_ms", self_ms Span.Match);
    ("volcano.apply_self_ms", self_ms Span.Apply);
    ("volcano.cost_self_ms", self_ms Span.Cost);
    ("volcano.enforcer_self_ms", self_ms Span.Enforcer);
    ("volcano.memo_insert_self_ms", self_ms Span.Memo_insert);
    ("volcano.match_n", count Span.Match /. n);
    ("volcano.apply_n", count Span.Apply /. n);
    ("volcano.cost_n", count Span.Cost /. n);
    ("volcano.memo_insert_n", count Span.Memo_insert /. n);
    ("volcano.apply_alloc_words", apply_words);
    ("volcano.groups", per_opt !groups);
    ("volcano.lexprs", per_opt !lexprs);
    ("volcano.groups_merged", per_opt st.Stats.groups_merged);
    ("volcano.pruned", per_opt st.Stats.pruned);
    ("volcano.impl_firings", per_opt st.Stats.impl_firings);
    ( "volcano.dup_ratio",
      ratio
        (float_of_int st.Stats.lexpr_duplicates)
        (float_of_int (st.Stats.lexprs_created + st.Stats.lexpr_duplicates)) );
    ("volcano.applies_per_match", ratio (count Span.Apply) (count Span.Match));
    ( "volcano.winner_hit_rate",
      ratio (float_of_int st.Stats.winner_hits) (float_of_int st.Stats.winner_probes) );
    ("volcano.alloc_words_per_opt", !words_p /. n);
    ( "core.descriptor_pool_hit_rate",
      ratio (float_of_int pool_hits) (float_of_int (pool_hits + pool_misses)) );
    ("obs.trace_overhead_pct", 100.0 *. (ratio !traced_ms !untraced_ms -. 1.0));
  ]
  @
  if config.handcoded then
    [
      ("volcano.handcoded_alloc_words_per_opt", !words_v /. n);
      ("volcano.alloc_ratio", ratio !words_p !words_v);
    ]
  else []

(* ---------------- the correctness pass ---------------- *)

let check config ~seed ~jobs1_p50 xs =
  let c = Workload.tally () and notes = ref [] in
  let expect ok = Workload.expect c ok in
  let outcome_of o = match o with Some o -> o | None -> assert false in
  let par_ms = Samples.create () in
  let measured = Array.to_list xs |> List.filter (fun x -> x.p_outcome <> None) in
  (* 1. the two contestants agree on every instance's cost *)
  List.iter
    (fun x ->
      let p = outcome_of x.p_outcome in
      let v =
        match x.v_outcome with
        | Some v -> v
        | None -> optimize ~search_jobs:1 x.volcano x
      in
      expect (Workload.same_cost p.Opt.cost v.Opt.cost)
        "%s: Prairie cost %.6f, hand-coded %.6f" (label x) p.Opt.cost v.Opt.cost;
      (* 2. parallel exploration returns the jobs-1 plan *)
      Option.iter
        (fun search_jobs ->
          let par, ms = time_ms (fun () -> optimize ~search_jobs x.prairie x) in
          Samples.add par_ms ms;
          expect
            (Workload.same_cost p.Opt.cost par.Opt.cost
            && String.equal (Workload.plan_digest p.Opt.plan)
                 (Workload.plan_digest par.Opt.plan))
            "%s: search_jobs %d plan differs from search_jobs 1" (label x) search_jobs)
        config.parallel_jobs)
    measured;
  notes :=
    Printf.sprintf "costs: Prairie = hand-coded on %d instances" (List.length measured)
    :: !notes;
  (* 3. executed results: Prairie, hand-coded and bottom-up plans *)
  let executed = ref 0 and results_checked = ref 0 and nonempty = ref 0 in
  let exec_ms = ref 0.0 in
  let empty_by_query = Hashtbl.create 8 in
  List.iter
    (fun x ->
      if x.q.W.Queries.joins <= config.execute_joins then begin
        let cat = x.q.W.Queries.catalog in
        let db = E.Data_gen.database ~seed:((seed * 7919) + x.q.W.Queries.seed) cat in
        let expr, required = x.prairie.Opt.prepare x.q.W.Queries.expr in
        let bottom_up =
          (Prairie_volcano.Bottom_up.optimize ~required x.prairie.Opt.volcano expr)
            .Prairie_volcano.Bottom_up.plan
        in
        let plans =
          [
            (outcome_of x.p_outcome).Opt.plan;
            (match x.v_outcome with
            | Some v -> v.Opt.plan
            | None -> (optimize ~search_jobs:1 x.volcano x).Opt.plan);
            bottom_up;
          ]
        in
        let results =
          List.map
            (function
              | None -> None
              | Some p ->
                let r, ms = time_ms (fun () -> E.Compile.execute_plan db p) in
                exec_ms := !exec_ms +. ms;
                incr executed;
                Some (E.Compile.canonical_result r))
            plans
        in
        (match results with
        | Some first :: rest ->
          expect
            (List.for_all (fun r -> r = Some first) rest)
            "%s: executed plans disagree" (label x);
          incr results_checked;
          if first <> [] then incr nonempty
          else
            let name = W.Queries.name x.q.W.Queries.query in
            Hashtbl.replace empty_by_query name
              (1 + Option.value ~default:0 (Hashtbl.find_opt empty_by_query name))
        | _ -> expect false "%s: a contestant found no plan" (label x))
      end)
    measured;
  if !executed > 0 then begin
    let empties =
      Hashtbl.fold (fun q n acc -> Printf.sprintf "%s %d" q n :: acc) empty_by_query []
    in
    notes :=
      Printf.sprintf
        "executor: %d plans run on Data_gen data, %d of %d checked results \
         non-empty%s"
        !executed !nonempty !results_checked
        (if empties = [] then ""
         else
           Printf.sprintf "; empty results, so vacuous checks, per query: %s"
             (String.concat ", " (List.sort compare empties)))
      :: !notes
  end;
  (* 4. the naive oracle, where it is tractable *)
  let naive_checked = ref 0 in
  List.iter
    (fun x ->
      if x.q.W.Queries.joins = 1 && List.mem x.q.W.Queries.query config.naive then begin
        incr naive_checked;
        let rs = Opt.oodb_ruleset x.q.W.Queries.catalog in
        let p = outcome_of x.p_outcome in
        match Prairie.Naive.best_plan rs ~required:Descriptor.empty x.q.W.Queries.expr with
        | Some n ->
          expect
            (Float.abs (n.Prairie.Naive.cost -. p.Opt.cost)
            <= 1e-6 *. Float.max 1.0 (Float.abs p.Opt.cost))
            "%s: naive oracle cost %.6f, Prairie %.6f" (label x)
            n.Prairie.Naive.cost p.Opt.cost
        | None -> expect false "%s: naive oracle found no plan" (label x)
      end)
    measured;
  if !naive_checked > 0 then
    notes :=
      Printf.sprintf "naive oracle: %d instances at 1 join" !naive_checked :: !notes;
  {
    Workload.checked = c.Workload.count;
    mismatches = List.rev c.Workload.failures;
    notes = List.rev !notes;
    c_layers =
      [
        ( "executor.execute_ms",
          if !executed = 0 then 0.0 else !exec_ms /. float_of_int !executed );
        ("executor.rows_nonempty", float_of_int !nonempty);
      ]
      @
      if Samples.length par_ms = 0 then []
      else
        (* one parallel search per instance against the timed jobs-1
           searches, k per instance: the same instance mix *)
        let par = median (Samples.to_array par_ms) in
        [ ("volcano.par_p50_ms", par); ("volcano.search_jobs_speedup", jobs1_p50 /. par) ];
  }

(* ---------------- set-up and the timed loop ---------------- *)

(* The instance set is fixed: search effort swings by up to 20x between
   catalog draws (a few cardinality patterns defeat branch-and-bound), so
   seed-drawn catalogs would make every timing a property of the draw.
   The seed orders the passes and generates the executor's data. *)
let setup config ~seed =
  let xs = instances config in
  (* warm-up: one search per instance and contestant, so the descriptor
     pool and the heap are in their steady state before anything is timed.
     Filling the pool from one domain keeps its contents (and the traced
     pass's allocation counts) the same in every process; exploration
     domains are spawned per search with pools of their own. *)
  Array.iter
    (fun x ->
      ignore (optimize ~search_jobs:1 x.prairie x);
      if config.handcoded then ignore (optimize ~search_jobs:1 x.volcano x))
    xs;
  let rng = Random.State.make [| seed; 1 |] in
  let jobs1_p50 = ref nan in
  let measure ~seconds =
    let lat = Samples.create () and lat_v = Samples.create () in
    let attempted = ref 0 and failed = ref 0 and busy = ref 0.0 in
    let run opt x ~search_jobs ~samples ~record =
      incr attempted;
      match
        Workload.attempt ~failed (fun () -> time_ms (fun () -> optimize ~search_jobs opt x))
      with
      | Some (({ Opt.plan = Some _; _ } as o), ms) ->
        Samples.add samples ms;
        record o ms
      | Some _ -> incr failed
      | None -> ()
    in
    let prairie x =
      run x.prairie x ~search_jobs:1 ~samples:lat ~record:(fun o ms ->
          busy := !busy +. (ms /. 1000.0);
          if x.p_outcome = None then x.p_outcome <- Some o;
          x.best_p <- Float.min x.best_p ms)
    in
    let handcoded x =
      if config.handcoded then
        run x.volcano x ~search_jobs:1 ~samples:lat_v ~record:(fun o ms ->
            if x.v_outcome = None then x.v_outcome <- Some o;
            x.best_v <- Float.min x.best_v ms)
    in
    let t0 = now_ns () in
    let pass = ref 0 in
    (* whole passes only, so every instance carries the same weight; the
       contestants alternate which goes first *)
    while !pass = 0 || seconds_since t0 < seconds do
      Array.iter
        (fun x ->
          if !pass land 1 = 0 then (prairie x; handcoded x)
          else (handcoded x; prairie x))
        (shuffle rng xs);
      incr pass
    done;
    let latencies_ms = Samples.to_array lat in
    jobs1_p50 := median latencies_ms;
    let m_layers =
      if config.handcoded then
        [
          ( "optimizers.prairie_handcoded_ratio",
            geomean
              (Array.to_list xs
              |> List.filter_map (fun x ->
                     if Float.is_finite x.best_p && Float.is_finite x.best_v then
                       Some (x.best_p /. x.best_v)
                     else None)) );
          ("optimizers.handcoded_p50_ms", median (Samples.to_array lat_v));
        ]
      else []
    in
    {
      Workload.latencies_ms;
      items = Array.length latencies_ms;
      busy_s = !busy;
      attempted = !attempted;
      failed = !failed;
      m_layers;
    }
  in
  {
    Workload.trace = (fun () -> traced_pass config xs);
    measure;
    check = (fun () -> check config ~seed ~jobs1_p50:!jobs1_p50 xs);
  }

let paper_figs =
  {
    Workload.name = "paper-figs";
    op = "one Optimizers.optimize call, Prairie optimizer, search_jobs 1";
    item = "Prairie optimization";
    setup =
      setup
        {
          shapes =
            W.Queries.
              [
                (Q1, [ 1; 2; 3; 4; 5; 6 ]);
                (Q2, [ 1; 2; 3; 4; 5; 6 ]);
                (Q3, [ 1; 2; 3 ]);
                (Q4, [ 1; 2; 3 ]);
                (Q5, [ 1; 2; 3 ]);
                (Q6, [ 1; 2; 3 ]);
                (Q7, [ 1; 2 ]);
                (Q8, [ 1; 2 ]);
              ];
          catalog_seeds = [ 101; 202; 303; 404; 505 ];
          parallel_jobs = None;
          handcoded = true;
          execute_joins = 2;
          naive = W.Queries.[ Q1; Q2; Q3; Q4; Q5; Q6 ];
        };
  }

let explode =
  {
    Workload.name = "explode";
    op = "one Optimizers.optimize call, Prairie optimizer, search_jobs 1";
    item = "Prairie optimization";
    setup =
      setup
        {
          shapes = W.Queries.[ (Q3, [ 4 ]); (Q4, [ 4 ]); (Q5, [ 4 ]); (Q6, [ 4 ]) ];
          catalog_seeds = [ 101; 202; 303; 404; 505; 606 ];
          parallel_jobs = Some 2;
          handcoded = false;
          execute_joins = 0;
          naive = [];
        };
  }
