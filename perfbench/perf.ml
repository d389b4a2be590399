(* perf: one benchmark for the rule-text -> P2V -> Volcano -> plan path.

     perf.exe [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
              [--out FILE]
     perf.exe compare A.jsonl B.jsonl [--bench BENCHMARK.json]

   A run sets its workload up three times (set-up time is their median),
   runs the traced pass when --trace is 1, measures the untraced
   operations for the given seconds, and ends with the correctness pass.
   It prints every metric with its unit and sample count; its last line
   is one JSON object (end-to-end metrics untraced, per-layer metrics
   traced).  --out appends a fuller record for compare mode.  The exit
   code is 1 when any operation or check failed.  See README.md. *)

let workloads =
  [ Optimize_workload.paper_figs; Optimize_workload.explode; Rule_compile.spec; Serve_mix.spec ]

let setups = 3

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (Catalogue.metric * float * int option) list;  (** value, samples *)
}

let metric name = Option.get (Catalogue.find name)

let run (spec : Workload.spec) ~seed ~seconds ~trace =
  Printf.printf "== %s: seed %d, %g s, %s\n   operation: %s\n%!" spec.Workload.name seed
    seconds
    (if trace then "traced pass, then untraced" else "untraced")
    spec.Workload.op;
  let setup_times = ref [] and last = ref None in
  for _ = 1 to setups do
    (* each set-up starts from a collected heap, so the three compare *)
    Gc.full_major ();
    let w, ms = Measure.time_ms (fun () -> spec.Workload.setup ~seed) in
    setup_times := (ms /. 1000.0) :: !setup_times;
    last := Some w
  done;
  let w = Option.get !last in
  let traced = if trace then w.Workload.trace () else [] in
  let m = w.Workload.measure ~seconds in
  let c = w.Workload.check () in
  let n = Array.length m.Workload.latencies_ms in
  let metrics =
    if trace then begin
      let values = traced @ m.Workload.m_layers @ c.Workload.c_layers in
      List.iter
        (fun (name, _) ->
          if Catalogue.find name = None then invalid_arg ("unlisted per-layer metric " ^ name))
        values;
      List.map
        (fun (k : Catalogue.metric) ->
          (k, Option.value ~default:0.0 (List.assoc_opt k.Catalogue.name values), None))
        Catalogue.per_layer
    end
    else
      [
        (metric "setup_s", Measure.median (Array.of_list !setup_times), Some setups);
        (metric "p50_ms", Measure.median m.Workload.latencies_ms, Some n);
        (metric "p90_ms", Measure.quantile m.Workload.latencies_ms 0.9, Some n);
        ( metric "throughput_per_s",
          float_of_int m.Workload.items /. m.Workload.busy_s,
          Some m.Workload.items );
      ]
  in
  List.iter
    (fun ((k : Catalogue.metric), v, samples) ->
      let detail =
        match (k.Catalogue.name, samples) with
        | "setup_s", Some s -> Printf.sprintf "median of %d set-ups" s
        | "throughput_per_s", Some s ->
          Printf.sprintf "%d x %s in %.3f s busy" s spec.Workload.item m.Workload.busy_s
        | _, Some s -> Printf.sprintf "%d operations" s
        | _, None -> if k.Catalogue.exact then "exact" else ""
      in
      Printf.printf "   %-38s %16.6f %-5s %s\n" k.Catalogue.name v k.Catalogue.unit_ detail)
    metrics;
  let attempted = m.Workload.attempted + c.Workload.checked in
  let failed = m.Workload.failed + List.length c.Workload.mismatches in
  Printf.printf "   correctness: %d checks, %d failed\n" c.Workload.checked
    (List.length c.Workload.mismatches);
  List.iter (Printf.printf "     %s\n") c.Workload.notes;
  List.iter (Printf.printf "     FAILED: %s\n") c.Workload.mismatches;
  let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) metrics in
  if not finite then print_endline "   FAILED: a metric is not a finite number";
  { correct = failed = 0 && finite && n > 0; attempted; failed; metrics }

(* The result line: one workload's metrics, or with several workloads
   every workload's, each name prefixed by its workload. *)
let result_json results =
  let all = List.map snd results in
  let sum f = Json.Num (float_of_int (List.fold_left (fun s r -> s + f r) 0 all)) in
  Json.Obj
    [
      ("correct", Json.Bool (List.for_all (fun r -> r.correct) all));
      ("attempted", sum (fun r -> r.attempted));
      ("failed", sum (fun r -> r.failed));
      ( "metrics",
        Json.Obj
          (List.concat_map
             (fun (prefix, r) ->
               List.map
                 (fun ((k : Catalogue.metric), v, _) ->
                   ( prefix ^ k.Catalogue.name,
                     Json.Obj
                       [
                         ("value", Json.Num (if Float.is_finite v then v else 0.0));
                         ("unit", Json.Str k.Catalogue.unit_);
                       ] ))
                 r.metrics)
             results) );
    ]

(* The compare-mode record: the result plus what identifies the run. *)
let record_json (spec : Workload.spec) ~seed ~trace r =
  Json.Obj
    [
      ("workload", Json.Str spec.Workload.name);
      ("seed", Json.Num (float_of_int seed));
      ("trace", Json.Bool trace);
      ("correct", Json.Bool r.correct);
      ("attempted", Json.Num (float_of_int r.attempted));
      ("failed", Json.Num (float_of_int r.failed));
      ( "metrics",
        Json.Obj
          (List.map
             (fun ((k : Catalogue.metric), v, samples) ->
               ( k.Catalogue.name,
                 Json.Obj
                   ([ ("value", Json.Num v); ("unit", Json.Str k.Catalogue.unit_) ]
                   @
                   match samples with
                   | Some s -> [ ("samples", Json.Num (float_of_int s)) ]
                   | None -> []) ))
             r.metrics) );
    ]

let usage () =
  prerr_endline
    "usage: perf.exe [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]\n\
    \       perf.exe compare A.jsonl B.jsonl [--bench BENCHMARK.json]\n\
     workloads: paper-figs, explode, compile, serve-mix";
  exit 2

let main args =
  let workload = ref "all" and seed = ref 1 and seconds = ref 15.0 and trace = ref false in
  let out = ref None in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest -> workload := w; parse rest
    | "--seed" :: s :: rest -> seed := int_of_string s; parse rest
    | "--seconds" :: s :: rest -> seconds := float_of_string s; parse rest
    | "--trace" :: ("0" | "1" as t) :: rest -> trace := t = "1"; parse rest
    | "--out" :: f :: rest -> out := Some f; parse rest
    | _ -> usage ()
  in
  (try parse args with Failure _ -> usage ());
  let selected =
    if !workload = "all" then workloads
    else
      match List.filter (fun (w : Workload.spec) -> w.Workload.name = !workload) workloads with
      | [] -> usage ()
      | l -> l
  in
  let results =
    List.map
      (fun spec ->
        let r = run spec ~seed:!seed ~seconds:!seconds ~trace:!trace in
        Option.iter
          (fun f ->
            let oc = open_out_gen [ Open_append; Open_creat ] 0o644 f in
            output_string oc (Json.to_string (record_json spec ~seed:!seed ~trace:!trace r) ^ "\n");
            close_out oc)
          !out;
        (spec, r))
      selected
  in
  let final =
    match results with
    | [ (_, r) ] -> result_json [ ("", r) ]
    | _ ->
      result_json
        (List.map (fun ((spec : Workload.spec), r) -> (spec.Workload.name ^ "/", r)) results)
  in
  print_endline (Json.to_string final);
  if List.for_all (fun (_, r) -> r.correct) results then 0 else 1

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "compare" :: a :: b :: rest -> (
    let bench = match rest with [ "--bench"; f ] -> f | [] -> "BENCHMARK.json" | _ -> usage () in
    match Compare.run ~bench a b with
    | code -> exit code
    | exception (Sys_error msg | Failure msg | Json.Error msg) ->
      prerr_endline ("compare: " ^ msg);
      exit 2)
  | args -> exit (main args)
