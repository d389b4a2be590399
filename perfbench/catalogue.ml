(* Every metric the benchmark reports, with its unit.  BENCHMARK.json
   lists the same names, with their directions and bounds; [exact] marks
   the per-layer values that repeat bit for bit across processes on the
   same seed (checked by the determinism audit in README.md), which
   compare mode requires to be equal. *)

type metric = { name : string; unit_ : string; exact : bool }

let m ?(exact = false) name unit_ = { name; unit_; exact }

(* Measured by every workload, on its own kind of operation. *)
let end_to_end =
  [
    m "setup_s" "s";
    m "p50_ms" "ms";
    m "p90_ms" "ms";
    m "throughput_per_s" "1/s";
  ]

(* A layer a workload does not exercise reports 0. *)
let per_layer =
  [
    m "ruledsl.lex_ms" "ms";
    m "ruledsl.parse_ms" "ms";
    m "ruledsl.elaborate_ms" "ms";
    m "p2v.enforcers_ms" "ms";
    m "p2v.merge_ms" "ms";
    m "p2v.classify_ms" "ms";
    m "p2v.translate_ms" "ms";
    m ~exact:true "p2v.trans_rules" "count";
    m ~exact:true "p2v.impl_rules" "count";
    m "lint.check_ms" "ms";
    m "analysis.check_ms" "ms";
    m "optimizers.prepare_us" "us";
    m "optimizers.prairie_handcoded_ratio" "ratio";
    m "optimizers.handcoded_p50_ms" "ms";
    m "volcano.explore_self_ms" "ms";
    m "volcano.match_self_ms" "ms";
    m "volcano.apply_self_ms" "ms";
    m "volcano.cost_self_ms" "ms";
    m "volcano.enforcer_self_ms" "ms";
    m "volcano.memo_insert_self_ms" "ms";
    m ~exact:true "volcano.match_n" "count";
    m ~exact:true "volcano.apply_n" "count";
    m ~exact:true "volcano.cost_n" "count";
    m ~exact:true "volcano.memo_insert_n" "count";
    m "volcano.apply_alloc_words" "words";
    m ~exact:true "volcano.groups" "count";
    m ~exact:true "volcano.lexprs" "count";
    m ~exact:true "volcano.groups_merged" "count";
    m ~exact:true "volcano.pruned" "count";
    m ~exact:true "volcano.impl_firings" "count";
    m ~exact:true "volcano.dup_ratio" "ratio";
    m ~exact:true "volcano.applies_per_match" "ratio";
    m ~exact:true "volcano.winner_hit_rate" "ratio";
    m ~exact:true "volcano.alloc_words_per_opt" "words";
    m ~exact:true "volcano.handcoded_alloc_words_per_opt" "words";
    m ~exact:true "volcano.alloc_ratio" "ratio";
    m "volcano.par_p50_ms" "ms";
    m "volcano.search_jobs_speedup" "ratio";
    m "core.descriptor_pool_hit_rate" "ratio";
    m "query.parse_us" "us";
    m "query.compile_us" "us";
    m "service.cache_hit_rate" "ratio";
    m "service.cache_evictions" "count";
    m "service.cache_invalidations" "count";
    m "service.dedup_ratio" "ratio";
    m "service.worker_max_share" "ratio";
    m "service.search_p50_ms" "ms";
    m "service.search_p99_ms" "ms";
    m "service.reload_ms" "ms";
    m "service.pool_batch_p50_ms" "ms";
    m "executor.execute_ms" "ms";
    m ~exact:true "executor.rows_nonempty" "count";
    m "obs.trace_overhead_pct" "%";
  ]

let find name = List.find_opt (fun m -> String.equal m.name name) (end_to_end @ per_layer)
