(* Search.Stats: the counters behind Table 5 and the bench sections.
   Regression tests for the per-rule accounts, the distinct-rule counts
   derived from them, and the [pp] rendering the service console
   prints. *)

module Stats = Prairie_volcano.Stats

let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* Bump one rule's account as the search does for [matched] firings of
   which [applied] passed the condition. *)
let fire (a : Stats.account) ~matched ~applied =
  a.matched <- a.matched + matched;
  a.applied <- a.applied + applied;
  a.rejected_test <- a.rejected_test + matched - applied

(* A value with every counter distinct and non-zero, so a field printed in
   the wrong place cannot hide behind a zero or a twin. *)
let populated () =
  let t = Stats.create () in
  t.Stats.groups_created <- 1;
  t.Stats.groups_merged <- 2;
  t.Stats.lexprs_created <- 3;
  t.Stats.lexpr_duplicates <- 4;
  t.Stats.impl_firings <- 6;
  t.Stats.enforcer_firings <- 7;
  t.Stats.memo_hits <- 8;
  t.Stats.optimize_calls <- 9;
  t.Stats.pruned <- 10;
  t.Stats.winner_probes <- 11;
  t.Stats.winner_hits <- 12;
  fire (Stats.trans_account t "t1") ~matched:4 ~applied:3;
  fire (Stats.trans_account t "t2") ~matched:2 ~applied:2;
  fire (Stats.impl_account t "i1") ~matched:1 ~applied:1;
  t

let test_rule_sets_distinct () =
  let t = Stats.create () in
  for _ = 1 to 3 do
    fire (Stats.trans_account t "r") ~matched:1 ~applied:0
  done;
  checki "distinct rules, not firings" 1 (Stats.trans_matched_count t);
  checki "the account counts firings" 3
    (List.assoc "r" (Stats.trans_accounts t)).Stats.matched;
  (* the trans and impl tables are independent *)
  checki "impl untouched" 0 (Stats.impl_matched_count t);
  checki "never applied" 0 (Stats.trans_applied_count t);
  checki "no applications" 0 (Stats.trans_applications t);
  fire (Stats.impl_account t "r") ~matched:1 ~applied:1;
  checki "same name in both tables" 1 (Stats.impl_matched_count t);
  checki "impl applied" 1 (Stats.impl_applied_count t);
  checki "trans still unapplied" 0 (Stats.trans_applied_count t)

let test_accounts () =
  let t = populated () in
  fire (Stats.trans_account t "t0") ~matched:1 ~applied:0;
  Alcotest.(check (list string)) "sorted by name" [ "t0"; "t1"; "t2" ]
    (List.map fst (Stats.trans_accounts t));
  checki "one account per rule" 3 (Hashtbl.length t.Stats.trans);
  checki "applications are the applied sum" 5 (Stats.trans_applications t);
  checki "t1 rejections" 1
    (List.assoc "t1" (Stats.trans_accounts t)).Stats.rejected_test;
  checki "matched" 3 (Stats.trans_matched_count t);
  checki "applied" 2 (Stats.trans_applied_count t);
  Alcotest.(check (list string)) "impl" [ "i1" ]
    (List.map fst (Stats.impl_accounts t))

(* The exact rendering: the bench tables and the service console parse by
   eye, so the shape is part of the interface. *)
let test_pp_stability () =
  let t = populated () in
  checks "pp format"
    "groups: 1 (merged 2)\n\
     logical expressions: 3 (dups 4)\n\
     trans applications: 5 (distinct matched 2)\n\
     impl firings: 6 (distinct matched 1)\n\
     enforcer firings: 7\n\
     memo hits: 8\n\
     optimize calls: 9\n\
     pruned: 10\n\
     winner probes: 11 (hits 12)"
    (Format.asprintf "%a" Stats.pp t);
  let t = Stats.create () in
  checks "pp of a fresh value"
    "groups: 0 (merged 0)\n\
     logical expressions: 0 (dups 0)\n\
     trans applications: 0 (distinct matched 0)\n\
     impl firings: 0 (distinct matched 0)\n\
     enforcer firings: 0\n\
     memo hits: 0\n\
     optimize calls: 0\n\
     pruned: 0\n\
     winner probes: 0 (hits 0)"
    (Format.asprintf "%a" Stats.pp t)

let suites =
  [
    ( "stats",
      [
        Alcotest.test_case "rule sets are sets" `Quick test_rule_sets_distinct;
        Alcotest.test_case "per-rule accounts" `Quick test_accounts;
        Alcotest.test_case "pp output is stable" `Quick test_pp_stability;
      ] );
  ]
