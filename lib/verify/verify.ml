module D = Prairie.Diagnostic
module Expr = Prairie.Expr
module Descriptor = Prairie.Descriptor
module Ruleset = Prairie.Ruleset
module Trule = Prairie.Trule
module Action = Prairie.Action
module Eval = Prairie.Eval
module Naive = Prairie.Naive
module Value = Prairie_value.Value
module Catalog = Prairie_catalog.Catalog
module Rng = Prairie_util.Rng
module Generate = Prairie_workload.Generate
module Helpers = Prairie_algebra.Helpers
module Translate = Prairie_p2v.Translate
module Search = Prairie_volcano.Search
module Plan = Prairie_volcano.Plan
module Lint = Prairie_lint.Lint
module Elaborate = Prairie_dsl.Elaborate

let catalogue : D.catalogue =
  [
    ("P000", D.Error, "rule-specification file failed to parse");
    ("P200", D.Error, "T-rule application crashed on a generated expression");
    ( "P210",
      D.Error,
      "T-rule changes a cost-relevant root property (LHS and RHS disagree)" );
    ("P220", D.Error, "optimizer best-plan cost diverges from the naive oracle");
    ( "P230",
      D.Warning,
      "guarded rewrite cycle: rules undo each other at run time (escapes P030/P031)"
    );
    ( "P231",
      D.Warning,
      "T-rule grows expressions without bound under self-application" );
    ("P232", D.Info, "no generated case exercised the rule");
  ]

type config = {
  seed : int;  (** master seed; every case seed derives from it *)
  budget : int;  (** generated cases per T-rule (and oracle queries) *)
  oracle_forms : int;  (** naive-closure cap for best-plan comparison *)
  rules : string list;
      (** restrict verification to these T-rules; [[]] means all rules plus
          the oracle phase (a non-empty filter skips the oracle, which is a
          whole-rule-set property) *)
}

let default_config =
  {
    seed = 42;
    budget = 10;
    (* modest: the closure is computed before the size guard can skip it,
       and a pathological (growing) rule set makes that computation
       quadratic in the cap *)
    oracle_forms = 256;
    rules = [];
  }

(* rule applications checked per case *)
let redexes_per_case = 4

(* T-closure cap when hunting redexes *)
let max_forms = 150

(* rewrite steps searched for a cycle back *)
let cycle_depth = 4

(* root properties a rewrite must preserve *)
let invariants = [ "attributes"; "num_records"; "tuple_size" ]

(* catalog-halving steps per counterexample *)
let max_shrink = 40

type rule_report = {
  rule : string;
  cases : int;
  redexes : int;
  counterexamples : int;
  shrink_steps : int;
}

type report = {
  ruleset : string;
  seed : int;
  diagnostics : D.t list;
  rules : rule_report list;
  rules_checked : int;
  cases_generated : int;
  counterexamples : int;
  shrink_steps : int;
}

module Expr_set = Set.Make (struct
  type t = Expr.t

  let compare = Expr.compare
end)

(* Deterministic per-case seed: the master seed, the stream key (rule name
   or "<oracle>") and the case index.  [Hashtbl.hash] on immediates and
   strings is stable across runs, which is what makes a printed case seed
   reproduce its counterexample. *)
let case_seed (config : config) key index = Hashtbl.hash (config.seed, key, index)

let float_close a b =
  Float.abs (a -. b) <= 1e-6 *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

let values_agree a b =
  match (a, b) with
  | Some (Value.Float x), Some (Value.Float y) -> float_close x y
  | Some va, Some vb -> Value.equal va vb
  | None, None -> true
  | Some v, None | None, Some v -> Value.equal v Value.Null

let value_string = function
  | None -> "<unset>"
  | Some v -> Format.asprintf "%a" Value.pp v

let is_tt = function Action.Const (Value.Bool true) -> true | _ -> false

let all_tt (rs : Ruleset.t) names =
  List.for_all
    (fun n ->
      match Ruleset.find_trule rs n with
      | Some r -> is_tt r.Trule.test
      | None -> false)
    names

(* ------------------------------------------------------------------ *)
(* Case generation                                                     *)
(* ------------------------------------------------------------------ *)

let subterms acc e =
  let rec go acc e =
    let acc = Expr_set.add e acc in
    List.fold_left go acc (Expr.inputs e)
  in
  go acc e

(* Smallest first, so that the first failing redex is already a small
   witness. *)
let smallest_first set =
  Expr_set.elements set
  |> List.sort (fun a b ->
         let c = Int.compare (Expr.size a) (Expr.size b) in
         if c <> 0 then c else Expr.compare a b)

(* All candidate redexes of a case: every subterm of the (bounded)
   T-closure of the generated roots. *)
let candidates rs roots =
  let forms =
    List.concat_map
      (fun root ->
        match Naive.logical_forms ~max_forms rs root with
        | forms -> forms
        | exception _ ->
          (* a crashing rule somewhere in the set aborts closure; direct
             application below still pins the crash on the guilty rule *)
          [ root ])
      roots
  in
  smallest_first (List.fold_left subterms Expr_set.empty forms)

(* Breadth-first search for a rewrite path leading back to [target],
   applying T-rules at the root only.  Bounded by depth and node count;
   returns the rule-name path on success. *)
let find_cycle (rs : Ruleset.t) ~start ~target =
  let q = Queue.create () in
  Queue.add (start, [], 0) q;
  let seen = ref (Expr_set.singleton start) in
  let found = ref None in
  let explored = ref 0 in
  while !found = None && (not (Queue.is_empty q)) && !explored < 200 do
    let e, path, depth = Queue.pop q in
    incr explored;
    if depth < cycle_depth then
      List.iter
        (fun (r : Trule.t) ->
          if !found = None then
            match Eval.apply_trule rs.Ruleset.helpers r e with
            | Some e' ->
              if Expr.equal e' target then
                found := Some (List.rev (r.Trule.name :: path))
              else if not (Expr_set.mem e' !seen) then begin
                seen := Expr_set.add e' !seen;
                Queue.add (e', r.Trule.name :: path, depth + 1) q
              end
            | None -> ()
            | exception _ -> ())
        rs.Ruleset.trules
  done;
  !found

(* Does repeated self-application at the root keep strictly growing the
   expression?  [out] is the result of the first application to [redex]. *)
let growth (rs : Ruleset.t) (rule : Trule.t) redex out =
  let rec go e k =
    if k >= cycle_depth then Some (Expr.size redex, Expr.size e)
    else
      match Eval.apply_trule rs.Ruleset.helpers rule e with
      | Some e' when Expr.size e' > Expr.size e -> go e' (k + 1)
      | Some _ | None -> None
      | exception _ -> None
  in
  if Expr.size out > Expr.size redex then go out 1 else None

type failure =
  | Crash of { redex : Expr.t; exn : string }
  | Invariant of {
      prop : string;
      redex : Expr.t;
      lhs : Value.t option;
      rhs : Value.t option;
    }
  | Cycle of { redex : Expr.t; rules : string list }
  | Growth of { redex : Expr.t; from_size : int; to_size : int }

(* The generator, world and rule set of one case: same seed, same draws —
   only the catalog may be overridden (by shrinking), which does not
   disturb the draw sequence because no draw inspects catalog
   statistics. *)
let case_world factory ~seed ~catalog_override =
  let rng = Rng.create seed in
  let w0 = Generate.world rng in
  let w =
    match catalog_override with
    | None -> w0
    | Some c -> Generate.with_catalog w0 c
  in
  (rng, w, factory w.Generate.catalog)

let eval_rule_case factory ~rule_name ~seed ~catalog_override =
  let rng, w, rs = case_world factory ~seed ~catalog_override in
  match Ruleset.find_trule rs rule_name with
  | None -> (w, [], 0)
  | Some rule ->
    let ops = List.map fst rs.Ruleset.operators in
    let root = Generate.of_pattern rng w ~ops rule.Trule.lhs in
    let cands = candidates rs [ root ] in
    let failures = ref [] in
    let applied = ref 0 in
    (* Root properties are compared on the generated expression's own
       subterms, whose descriptors the algebra's initializer computed.
       Closure forms carry estimates other rules recomputed along other
       join association orders, and the ceil-rounded cardinality model
       lets those drift (a MAT at 537 rows over a JOIN at 536): a
       disagreement there is not the rule under test's doing. *)
    List.iter
      (fun redex ->
        match Eval.apply_trule rs.Ruleset.helpers rule redex with
        | Some out ->
          List.iter
            (fun prop ->
              let lhs = Descriptor.find (Expr.descriptor redex) prop in
              let rhs = Descriptor.find (Expr.descriptor out) prop in
              if not (values_agree lhs rhs) then
                failures := Invariant { prop; redex; lhs; rhs } :: !failures)
            invariants
        | None -> ()
        | exception _ -> ())
      (smallest_first (subterms Expr_set.empty root));
    List.iter
      (fun redex ->
        if !applied < redexes_per_case then
          match Eval.apply_trule rs.Ruleset.helpers rule redex with
          | None -> ()
          | exception e ->
            incr applied;
            failures := Crash { redex; exn = Printexc.to_string e } :: !failures
          | Some out ->
            incr applied;
            (match find_cycle rs ~start:out ~target:redex with
            | Some path ->
              let rules = rule.Trule.name :: path in
              if not (all_tt rs rules) then
                failures := Cycle { redex; rules } :: !failures
            | None -> ());
            (match growth rs rule redex out with
            | Some (from_size, to_size) ->
              failures := Growth { redex; from_size; to_size } :: !failures
            | None -> ()))
      cands;
    (w, List.rev !failures, !applied)

(* ------------------------------------------------------------------ *)
(* Shrinking                                                           *)
(* ------------------------------------------------------------------ *)

(* Halve catalog cardinalities while [still_fails] finds the failure on
   the smaller catalog; the witness expression regenerates
   deterministically from the case seed against each candidate catalog.
   The expression itself was already minimized by checking the smallest
   applicable redexes first. *)
let shrink ~still_fails catalog0 fail0 =
  let rec go steps catalog fail =
    if steps >= max_shrink then (catalog, fail, steps)
    else
      match Generate.shrink_catalog catalog with
      | None -> (catalog, fail, steps)
      | Some catalog' -> (
        match still_fails catalog' with
        | exception _ -> (catalog, fail, steps)
        | Some fail' -> go (steps + 1) catalog' fail'
        | None -> (catalog, fail, steps))
  in
  go 0 catalog0 fail0

let same_kind a b =
  match (a, b) with
  | Crash _, Crash _ -> true
  | Invariant x, Invariant y -> String.equal x.prop y.prop
  | Cycle _, Cycle _ -> true
  | Growth _, Growth _ -> true
  | _ -> false

let failure_key = function
  | Crash _ -> "P200"
  | Invariant { prop; _ } -> "P210:" ^ prop
  | Cycle { rules; _ } -> "P230:" ^ String.concat "," (List.sort_uniq String.compare rules)
  | Growth _ -> "P231"

let witness catalog redex =
  Printf.sprintf "%s  [catalog %s]" (Expr.to_string redex)
    (Generate.catalog_summary catalog)

let repro_hint (config : config) ~seed ~index ~steps =
  Printf.sprintf
    "reproduce with --seed %d; the witness regenerates from case seed %d (case %d), shrunk %d step(s)"
    config.seed seed index steps

let failure_diagnostic (config : config) ~rule_name ~seed ~index ~steps catalog fail =
  match fail with
  | Crash { redex; exn } ->
    D.error ~code:"P200" ~rule:rule_name
      ~hint:(repro_hint config ~seed ~index ~steps)
      (Printf.sprintf "rule application raised %s on %s" exn
         (witness catalog redex))
  | Invariant { prop; redex; lhs; rhs } ->
    D.error ~code:"P210" ~rule:rule_name
      ~hint:(repro_hint config ~seed ~index ~steps)
      (Printf.sprintf "rewrite changes root %s from %s to %s on %s" prop
         (value_string lhs) (value_string rhs) (witness catalog redex))
  | Cycle { redex; rules } ->
    D.warning ~code:"P230" ~rule:rule_name
      ~hint:(repro_hint config ~seed ~index ~steps)
      (Printf.sprintf
         "applying %s returns to the original expression %s; the guards pass at every step, so only memo deduplication prevents divergence"
         (String.concat " -> " rules) (witness catalog redex))
  | Growth { redex; from_size; to_size } ->
    D.warning ~code:"P231" ~rule:rule_name
      ~hint:(repro_hint config ~seed ~index ~steps)
      (Printf.sprintf
         "self-application grows the expression from %d to %d nodes within %d steps on %s"
         from_size to_size cycle_depth (witness catalog redex))

(* ------------------------------------------------------------------ *)
(* Per-rule verification                                               *)
(* ------------------------------------------------------------------ *)

let check_rule (config : config) factory ~rule_name =
  let diags = ref [] in
  let reported = Hashtbl.create 4 in
  let cases = ref 0 in
  let redexes = ref 0 in
  let counterexamples = ref 0 in
  let shrink_steps = ref 0 in
  for index = 0 to config.budget - 1 do
    let seed = case_seed config rule_name index in
    match eval_rule_case factory ~rule_name ~seed ~catalog_override:None with
    | exception e ->
      incr cases;
      if not (Hashtbl.mem reported "P200") then begin
        Hashtbl.add reported "P200" ();
        incr counterexamples;
        diags :=
          D.error ~code:"P200" ~rule:rule_name
            ~hint:(repro_hint config ~seed ~index ~steps:0)
            (Printf.sprintf "case generation raised %s" (Printexc.to_string e))
          :: !diags
      end
    | w, failures, applied ->
      incr cases;
      redexes := !redexes + applied;
      List.iter
        (fun fail ->
          let key = failure_key fail in
          if not (Hashtbl.mem reported key) then begin
            Hashtbl.add reported key ();
            incr counterexamples;
            let catalog, fail, steps =
              match fail with
              | Cycle _ | Growth _ ->
                (* structural findings: the smallest-redex witness is
                   already minimal, catalog statistics are irrelevant *)
                (w.Generate.catalog, fail, 0)
              | Crash _ | Invariant _ ->
                let still_fails catalog =
                  let _, failures, _ =
                    eval_rule_case factory ~rule_name ~seed
                      ~catalog_override:(Some catalog)
                  in
                  List.find_opt (same_kind fail) failures
                in
                shrink ~still_fails w.Generate.catalog fail
            in
            shrink_steps := !shrink_steps + steps;
            diags :=
              failure_diagnostic config ~rule_name ~seed ~index ~steps catalog
                fail
              :: !diags
          end)
        failures
  done;
  if !redexes = 0 && !counterexamples = 0 then
    diags :=
      D.info ~code:"P232" ~rule:rule_name
        ~hint:"widen the generators or raise --budget if the rule should be reachable"
        (Printf.sprintf
           "none of the %d generated cases produced an expression this rule applies to"
           config.budget)
      :: !diags;
  ( {
      rule = rule_name;
      cases = !cases;
      redexes = !redexes;
      counterexamples = !counterexamples;
      shrink_steps = !shrink_steps;
    },
    !diags )

(* ------------------------------------------------------------------ *)
(* Oracle differential (P220)                                          *)
(* ------------------------------------------------------------------ *)

type divergence = {
  query : Expr.t;
  naive_cost : float option;
  volcano_cost : float option;
}

let oracle_rule = "<oracle>"

(* One oracle query: [`Skipped] when the logical space overflows the cap
   (the naive best would not be authoritative), [`Agree] when both
   optimizers produce the same best cost, [`Diverged d] otherwise. *)
let eval_oracle_case (config : config) factory ~seed ~catalog_override =
  let rng, w, rs = case_world factory ~seed ~catalog_override in
  let ops = List.map fst rs.Ruleset.operators in
  let query =
    if List.mem "RET" ops && List.mem "JOIN" ops then Generate.expr rng w ~ops
    else
      let depth = Rng.in_range rng 1 3 in
      Generate.of_vocabulary rng w ~ops:rs.Ruleset.operators ~depth
  in
  let forms = Naive.logical_forms ~max_forms:config.oracle_forms rs query in
  if List.length forms >= config.oracle_forms then (w, `Skipped)
  else begin
    let tr = Translate.translate rs in
    let query', required = Translate.prepare_query tr query in
    let ctx = Search.create tr.Translate.volcano in
    let vol = Search.optimize ~required ctx query' in
    let naive = Naive.best_plan ~max_forms:config.oracle_forms rs ~required query' in
    match (naive, vol) with
    | None, None -> (w, `Agree)
    | Some n, Some p when float_close n.Naive.cost (Plan.cost p) -> (w, `Agree)
    | _ ->
      ( w,
        `Diverged
          {
            query;
            naive_cost = Option.map (fun (n : Naive.result) -> n.Naive.cost) naive;
            volcano_cost = Option.map Plan.cost vol;
          } )
  end

let cost_string = function
  | None -> "no plan"
  | Some c -> Printf.sprintf "cost %.6g" c

let check_oracle (config : config) factory =
  let diags = ref [] in
  let cases = ref 0 in
  let queries = ref 0 in
  let counterexamples = ref 0 in
  let shrink_steps = ref 0 in
  let found = ref false in
  for index = 0 to config.budget - 1 do
    if not !found then begin
      let seed = case_seed config oracle_rule index in
      match eval_oracle_case config factory ~seed ~catalog_override:None with
      | exception _ -> incr cases (* generation problems are the rules' P200 *)
      | w, outcome ->
        incr cases;
        match outcome with
        | `Skipped -> ()
        | `Agree -> incr queries
        | `Diverged div ->
          incr queries;
          found := true;
          incr counterexamples;
          let still_fails catalog =
            match
              eval_oracle_case config factory ~seed
                ~catalog_override:(Some catalog)
            with
            | _, `Diverged div' -> Some div'
            | _, (`Agree | `Skipped) -> None
          in
          let catalog, div, steps = shrink ~still_fails w.Generate.catalog div in
          shrink_steps := !shrink_steps + steps;
          diags :=
            D.error ~code:"P220"
              ~hint:(repro_hint config ~seed ~index ~steps)
              (Printf.sprintf
                 "optimizer disagrees with the naive oracle on %s: oracle %s, search %s"
                 (witness catalog div.query)
                 (cost_string div.naive_cost)
                 (cost_string div.volcano_cost))
            :: !diags
    end
  done;
  ( {
      rule = oracle_rule;
      cases = !cases;
      redexes = !queries;
      counterexamples = !counterexamples;
      shrink_steps = !shrink_steps;
    },
    !diags )

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let verify_ruleset ?(config = default_config) factory =
  let probe_rng = Rng.create config.seed in
  let probe = factory (Generate.world probe_rng).Generate.catalog in
  let name = probe.Ruleset.name in
  let rule_names =
    List.map (fun (r : Trule.t) -> r.Trule.name) probe.Ruleset.trules
  in
  let rule_names =
    match config.rules with
    | [] -> rule_names
    | wanted -> List.filter (fun n -> List.mem n wanted) rule_names
  in
  let per_rule =
    List.map (fun rule_name -> check_rule config factory ~rule_name) rule_names
  in
  let oracle =
    (* the oracle compares whole-rule-set optimization against the naive
       baseline, so it only makes sense without a rule filter *)
    if config.rules = [] then [ check_oracle config factory ] else []
  in
  let rules = List.map fst per_rule @ List.map fst oracle in
  let diagnostics =
    D.normalize (List.concat_map snd per_rule @ List.concat_map snd oracle)
  in
  {
    ruleset = name;
    seed = config.seed;
    diagnostics;
    rules;
    rules_checked = List.length rule_names;
    cases_generated = List.fold_left (fun acc (r : rule_report) -> acc + r.cases) 0 rules;
    counterexamples =
      List.fold_left (fun acc (r : rule_report) -> acc + r.counterexamples) 0 rules;
    shrink_steps = List.fold_left (fun acc (r : rule_report) -> acc + r.shrink_steps) 0 rules;
  }

let empty_report ~ruleset ~seed diagnostics =
  {
    ruleset;
    seed;
    diagnostics = D.normalize diagnostics;
    rules = [];
    rules_checked = 0;
    cases_generated = 0;
    counterexamples = List.length (D.errors diagnostics);
    shrink_steps = 0;
  }

let verify_string ?(config = default_config) src =
  match Lint.parse_source src with
  | Error d -> empty_report ~ruleset:"" ~seed:config.seed [ d ]
  | Ok spec -> (
    let factory catalog =
      Elaborate.elaborate ~helpers:(Helpers.env catalog) spec
    in
    match verify_ruleset ~config factory with
    | exception Elaborate.Elab_error ds ->
      empty_report ~ruleset:spec.Prairie_dsl.Ast.ruleset_name ~seed:config.seed ds
    | report ->
      { report with diagnostics = Lint.with_pragmas src report.diagnostics })
