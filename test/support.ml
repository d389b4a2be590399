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

(* The rule-text validator's errors on an OCaml-built rule set (a
   combined set, a merged rule): its rendering, checked with the set's
   own helpers.  [[]] is the verdict "elaborates". *)
let rule_text_errors (rs : Prairie.Ruleset.t) =
  List.map D.to_string
    (Prairie_dsl.Check.errors ~helpers:rs.Prairie.Ruleset.helpers
       (Prairie_dsl.Parser.parse (Prairie_dsl.Render.ruleset_to_string rs)))

(* Rule text the validator rejects with [code]: lint reports that error,
   and elaboration raises every such diagnostic unchanged — same code,
   span and message. *)
let check_rejects ?(helpers = Prairie.Helper_env.builtins) code src =
  let reported =
    List.filter
      (fun (d : D.t) -> String.equal d.D.code code)
      (D.errors (Prairie_lint.Lint.lint_string ~helpers src))
  in
  check (code ^ " reported by lint") true (reported <> []);
  match Prairie_dsl.Elaborate.load_string ~helpers src with
  | _ -> Alcotest.failf "%s: the text elaborates" code
  | exception Prairie_dsl.Elaborate.Elab_error raised ->
    List.iter
      (fun d -> check (D.to_string d ^ " raised by elaboration") true (List.mem d raised))
      reported
