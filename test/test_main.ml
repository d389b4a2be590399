(* Aggregates every suite into one alcotest binary: `dune runtest`. *)

let () =
  Alcotest.run "prairie"
    (Test_value.suites @ Test_catalog.suites @ Test_descriptor.suites
   @ Test_pattern.suites @ Test_eval.suites @ Test_rules.suites
   @ Test_naive.suites @ Test_memo.suites @ Test_search.suites
   @ Test_p2v.suites @ Test_oodb.suites @ Test_dsl.suites
   @ Test_executor.suites @ Test_workload.suites @ Test_bottom_up.suites
   @ Test_query.suites @ Test_helpers.suites @ Test_combine.suites
   @ Test_misc.suites @ Test_unnest.suites
   @ Test_star.suites @ Test_distributed.suites @ Test_properties.suites
   @ Test_translate_pieces.suites @ Test_aggregates.suites
   @ Test_service.suites @ Test_stats.suites @ Test_obs.suites
   @ Test_spans.suites @ Test_lint.suites @ Test_analysis.suites
   @ Test_verify.suites)
