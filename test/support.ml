(* Shared helpers for the diagnostic test suites (lint, analyze, verify):
   reading a rule file, the list of shipped rule files, code queries over
   diagnostic lists and the planted-bug fixture runner. *)

module D = Prairie.Diagnostic

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Every shipped rule file, relative to the test directory: the "shipped"
   cases of lint, analyze and verify check each one. *)
let shipped_rule_files =
  [
    "../rules/aggregates.prairie";
    "../rules/distributed.prairie";
    "../rules/open_oodb.prairie";
    "../rules/relational.prairie";
  ]

let has code ds = List.exists (fun (d : D.t) -> String.equal d.D.code code) ds

let severity_of code ds =
  List.filter_map
    (fun (d : D.t) ->
      if String.equal d.D.code code then Some d.D.severity else None)
    ds

(* Planted-bug fixtures: each case is (code, triggering source, corrected
   source); [run] maps a source to its diagnostics.  The corrected spec
   may have unrelated findings; it must not have the case's code. *)
let fixture_tests ~run cases =
  List.map
    (fun (code, bad, good) ->
      Alcotest.test_case (code ^ " fires and is fixable") `Quick (fun () ->
          check (code ^ " triggered") true (has code (run bad));
          check (code ^ " absent after fix") false (has code (run good))))
    cases
