(* The span sink and the serve telemetry endpoint: well-formedness
   of the span tree (strict nesting, monotonic clocks, self-time
   accounting), events inside their spans, the exact aggregate table,
   the Chrome trace and
   Prometheus quantile exports, the slow-query log, and an end-to-end
   HTTP round trip against the telemetry server. *)

module Span = Prairie_obs.Span
module Metrics = Prairie_obs.Metrics
module Slow_log = Prairie_obs.Slow_log
module Telemetry = Prairie_service.Telemetry
module Opt = Prairie_optimizers.Optimizers
module Explain = Prairie_volcano.Explain
module W = Prairie_workload

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let qtest name ?(count = 50) gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen prop)

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

(* A minimal JSON parser: enough to check that an exporter's output is
   one well-formed document and to walk the Chrome trace's event list. *)
type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Bad_json

let parse_json s =
  let n = String.length s and i = ref 0 in
  let peek () = if !i < n then s.[!i] else raise Bad_json in
  let rec skip_ws () =
    if !i < n && String.contains " \t\r\n" s.[!i] then (incr i; skip_ws ())
  in
  let expect c =
    skip_ws ();
    if peek () <> c then raise Bad_json;
    incr i
  in
  let literal word v =
    let k = String.length word in
    if !i + k <= n && String.sub s !i k = word then (i := !i + k; v)
    else raise Bad_json
  in
  let string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> incr i
      | '\\' ->
        incr i;
        (match peek () with
        | 'u' ->
          if !i + 4 >= n
             || int_of_string_opt ("0x" ^ String.sub s (!i + 1) 4) = None
          then raise Bad_json;
          i := !i + 4
        | '"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't' ->
          Buffer.add_char buf s.[!i]
        | _ -> raise Bad_json);
        incr i;
        go ()
      | c when Char.code c < 0x20 -> raise Bad_json
      | c ->
        Buffer.add_char buf c;
        incr i;
        go ()
    in
    go ();
    Buffer.contents buf
  in
  (* comma-separated items up to [close], after the opening bracket *)
  let items close item =
    skip_ws ();
    if peek () = close then (incr i; [])
    else
      let rec more acc =
        let acc = item () :: acc in
        skip_ws ();
        match peek () with
        | ',' -> incr i; more acc
        | c when c = close -> incr i; List.rev acc
        | _ -> raise Bad_json
      in
      more []
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | '{' ->
      incr i;
      Obj
        (items '}' (fun () ->
             let k = string () in
             expect ':';
             (k, value ())))
    | '[' ->
      incr i;
      Arr (items ']' value)
    | '"' -> Str (string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ ->
      let j = !i in
      while !i < n && String.contains "0123456789+-.eE" s.[!i] do incr i done;
      (match float_of_string_opt (String.sub s j (!i - j)) with
      | Some f when !i > j -> Num f
      | _ -> raise Bad_json)
  in
  let v = value () in
  skip_ws ();
  if !i <> n then raise Bad_json;
  v

let json_well_formed s =
  match parse_json s with _ -> true | exception Bad_json -> false

(* ------------------------------------------------------------------ *)
(* The span sink                                                       *)
(* ------------------------------------------------------------------ *)

let test_span_basics () =
  let t = Span.create ~capacity:16 () in
  let root = Span.enter t Span.Optimize in
  let child = Span.enter t ~rule:"join_commute" ~parent:root Span.Apply in
  Span.exit t child;
  let child2 = Span.enter t ~rule:"join_assoc" ~parent:root Span.Match in
  Span.exit t child2;
  Span.exit t root;
  checki "spans" 3 (Span.span_count t);
  checki "length" 3 (Span.length t);
  checki "dropped" 0 (Span.dropped t);
  checki "roots" 1 (Span.root_count t);
  let rs = Span.records t in
  (* records appear in completion order: children before the root *)
  (match rs with
  | [ a; b; c ] ->
    check "child first" true (a.Span.phase = Span.Apply);
    checks "rule attribution" "join_commute"
      (Option.value ~default:"-" a.Span.rule);
    checki "child parent id" c.Span.id a.Span.parent;
    checki "root is a root" (-1) c.Span.parent;
    check "root self + children = total" true
      Int64.(
        equal c.Span.dur_ns
          (add c.Span.self_ns (add a.Span.dur_ns b.Span.dur_ns)))
  | _ -> Alcotest.fail "expected 3 records");
  (* exact aggregates: one row per (phase, rule) *)
  let prof = Span.profile t in
  checki "aggregate rows" 3 (List.length prof);
  Span.clear t;
  checki "cleared" 0 (Span.length t)

let test_span_wraparound () =
  let t = Span.create ~capacity:4 () in
  for _ = 1 to 10 do
    let h = Span.enter t ~rule:"r" Span.Cost in
    Span.exit t h
  done;
  checki "count includes drops" 10 (Span.span_count t);
  checki "ring keeps capacity" 4 (Span.length t);
  checki "dropped" 6 (Span.dropped t);
  (* the aggregate table is exact despite the drops *)
  match Span.profile t with
  | [ a ] ->
    checki "aggregate count survives wrap" 10 a.Span.a_count;
    checki "root count survives wrap" 10 (Span.root_count t)
  | l -> Alcotest.failf "expected 1 aggregate row, got %d" (List.length l)

(* Spans and events share one ring and one counter; [records] and
   [events] each see only their own kind. *)
let test_spans_and_events_share_a_ring () =
  let t = Span.create ~capacity:3 () in
  let root = Span.enter t Span.Optimize in
  Span.emit t ~span:root (Span.Memo_hit { gid = 1 });
  let child = Span.enter t ~parent:root Span.Cost in
  Span.emit t ~span:child (Span.Memo_hit { gid = 2 });
  Span.exit t child;
  Span.emit t ~span:root (Span.Memo_hit { gid = 3 });
  Span.exit t root;
  checki "spans" 2 (Span.span_count t);
  checki "events" 3 (Span.event_count t);
  checki "ring holds three of five" 3 (Span.length t);
  checki "dropped" 2 (Span.dropped t);
  (* the ring kept the child's close, the last event and the root *)
  check "spans retained" true
    (List.map (fun r -> r.Span.id) (Span.records t) = [ 2; 0 ]);
  (match Span.events t with
  | [ e ] ->
    checki "seq from the shared counter" 4 e.Span.seq;
    checki "emitted under the root" 0 e.Span.span
  | l -> Alcotest.failf "expected 1 event, got %d" (List.length l));
  match Span.profile t with
  | [ _; _ ] -> ()
  | l -> Alcotest.failf "expected 2 aggregate rows, got %d" (List.length l)

(* Run a randomly generated nesting script and check tree invariants
   over the emitted records.  The script is a forest of small trees;
   each node opens a span, recurses, then closes. *)
type script = Node of int * script list

let script_gen =
  QCheck2.Gen.(
    let rec tree depth =
      if depth = 0 then map (fun p -> Node (p, [])) (0 -- 6)
      else
        map2
          (fun p kids -> Node (p, kids))
          (0 -- 6)
          (list_size (0 -- 3) (tree (depth - 1)))
    in
    list_size (1 -- 4) (tree 3))

let all_phases =
  Span.[ Optimize; Explore; Match; Apply; Cost; Enforcer; Memo_insert ]

let phase_of_int i = List.nth all_phases (i mod List.length all_phases)

let run_script t forest =
  let rec go parent (Node (p, kids)) =
    let h = Span.enter t ?parent ~rule:"r" (phase_of_int p) in
    List.iter (go (Some h)) kids;
    Span.exit t h
  in
  List.iter (go None) forest

let prop_span_well_formed =
  qtest "span records are well-formed" ~count:100 script_gen (fun forest ->
      let t = Span.create ~capacity:4096 () in
      run_script t forest;
      let rs = Span.records t in
      let by_id = Hashtbl.create 64 in
      List.iter (fun (r : Span.record) -> Hashtbl.replace by_id r.Span.id r) rs;
      List.for_all
        (fun (r : Span.record) ->
          let end_ns = Int64.add r.Span.start_ns r.Span.dur_ns in
          (* positive durations from the strictly monotonic clock *)
          Int64.compare r.Span.dur_ns 0L > 0
          && Int64.compare r.Span.self_ns 0L >= 0
          && Int64.compare r.Span.self_ns r.Span.dur_ns <= 0
          &&
          match Hashtbl.find_opt by_id r.Span.parent with
          | None -> r.Span.parent = -1
          | Some (p : Span.record) ->
            (* strict nesting: parent opened before, closed after *)
            Int64.compare p.Span.start_ns r.Span.start_ns < 0
            && Int64.compare end_ns (Int64.add p.Span.start_ns p.Span.dur_ns) < 0)
        rs
      &&
      (* children sum <= parent duration, per parent *)
      let child_sum = Hashtbl.create 64 in
      List.iter
        (fun (r : Span.record) ->
          if r.Span.parent >= 0 then
            Hashtbl.replace child_sum r.Span.parent
              (Int64.add r.Span.dur_ns
                 (Option.value ~default:0L
                    (Hashtbl.find_opt child_sum r.Span.parent))))
        rs;
      List.for_all
        (fun (r : Span.record) ->
          match Hashtbl.find_opt child_sum r.Span.id with
          | None -> true
          | Some sum ->
            Int64.compare sum r.Span.dur_ns <= 0
            && Int64.equal r.Span.self_ns (Int64.sub r.Span.dur_ns sum))
        rs)

(* Telescoping identity: every span's self time is its duration minus
   its children's, so summing self over the exact aggregate table must
   reproduce the rooted total exactly — no tolerance needed. *)
let test_profile_self_sums_to_root_total () =
  let inst = W.Queries.instance W.Queries.Q5 ~joins:2 ~seed:101 in
  let opt = Opt.oodb_prairie inst.W.Queries.catalog in
  let sink = Span.create ~capacity:256 () in
  (* small capacity on purpose: aggregates must stay exact through drops *)
  ignore (Opt.optimize ~spans:sink opt inst.W.Queries.expr);
  check "spans recorded" true (Span.span_count sink > 100);
  check "ring dropped some" true (Span.dropped sink > 0);
  checki "one root" 1 (Span.root_count sink);
  let self_sum =
    List.fold_left
      (fun acc a -> Int64.add acc a.Span.a_self_ns)
      0L (Span.profile sink)
  in
  check "sum(self) = rooted total" true
    (Int64.equal self_sum (Span.root_total_ns sink))

let test_profile_total_close_to_wall () =
  let inst = W.Queries.instance W.Queries.Q7 ~joins:2 ~seed:101 in
  let opt = Opt.oodb_prairie inst.W.Queries.catalog in
  let sink = Span.create () in
  let t0 = Unix.gettimeofday () in
  ignore (Opt.optimize ~spans:sink opt inst.W.Queries.expr);
  let wall_ns = (Unix.gettimeofday () -. t0) *. 1e9 in
  let rooted = Int64.to_float (Span.root_total_ns sink) in
  (* the root span excludes only query preparation and plan extraction;
     the acceptance bound is 10%, test generously at 30% for CI noise *)
  check "rooted total within 30% of wall" true
    (Float.abs (rooted -. wall_ns) < 0.30 *. wall_ns);
  (* the rendered profile mentions the hot rules *)
  let s = Format.asprintf "%a" Explain.profile sink in
  check "profile has header" true (contains s "span profile:");
  check "profile has phase column" true (contains s "apply");
  check "profile attributes rules" true (contains s "join")

let test_spans_are_pure () =
  let inst = W.Queries.instance W.Queries.Q5 ~joins:2 ~seed:101 in
  let opt = Opt.oodb_prairie inst.W.Queries.catalog in
  let plain = Opt.optimize opt inst.W.Queries.expr in
  let sink = Span.create () in
  let profiled = Opt.optimize ~spans:sink opt inst.W.Queries.expr in
  check "same cost with spans attached" true
    (Float.equal plain.Opt.cost profiled.Opt.cost);
  checks "same plan"
    (match plain.Opt.plan with
    | Some p -> Explain.summary p
    | None -> "-")
    (match profiled.Opt.plan with
    | Some p -> Explain.summary p
    | None -> "-")

(* ------------------------------------------------------------------ *)
(* Chrome trace export                                                 *)
(* ------------------------------------------------------------------ *)

let test_chrome_export_shape () =
  let t = Span.create () in
  let root = Span.enter t Span.Optimize in
  let c = Span.enter t ~rule:"select_push \"quoted\"" ~parent:root Span.Apply in
  Span.exit t c;
  Span.exit t root;
  let s = Span.to_chrome t in
  check "well-formed json" true (json_well_formed s);
  check "trace events array" true (contains s "\"traceEvents\"");
  check "complete events" true (contains s "\"ph\":\"X\"");
  check "process metadata" true (contains s "\"process_name\"");
  check "rule escaped into args" true (contains s "\\\"quoted\\\"");
  check "microsecond fields" true (contains s "\"dur\":")

let test_chrome_of_trace_shape () =
  let inst = W.Queries.instance W.Queries.Q1 ~joins:2 ~seed:101 in
  let opt = Opt.oodb_prairie inst.W.Queries.catalog in
  let sink = Span.create () in
  ignore (Opt.optimize ~spans:sink opt inst.W.Queries.expr);
  let field k = function Obj f -> List.assoc_opt k f | _ -> None in
  match field "traceEvents" (parse_json (Span.to_chrome sink)) with
  | Some (Arr entries) ->
    let with_ph p = List.filter (fun e -> field "ph" e = Some (Str p)) entries in
    checki "one complete event per span" (Span.span_count sink)
      (List.length (with_ph "X"));
    checki "one instant event per search event" (Span.event_count sink)
      (List.length (with_ph "i"));
    check "instants carry the event object under args" true
      (List.for_all
         (fun e ->
           match field "args" e with
           | Some args -> field "event" args <> None && field "span" args <> None
           | None -> false)
         (with_ph "i"))
  | _ -> Alcotest.fail "no traceEvents array"
  | exception Bad_json -> Alcotest.fail "to_chrome is not JSON"

(* Every event names the innermost span open where it was emitted: the
   latest-starting retained span whose [start, start + dur] contains the
   event's timestamp, or -1 when no span contains it. *)
let test_events_name_their_span () =
  let inst = W.Queries.instance W.Queries.Q5 ~joins:2 ~seed:101 in
  let opt = Opt.oodb_prairie inst.W.Queries.catalog in
  let sink = Span.create () in
  ignore (Opt.optimize ~spans:sink opt inst.W.Queries.expr);
  checki "nothing dropped" 0 (Span.dropped sink);
  let rs = Span.records sink and evs = Span.events sink in
  check "events recorded" true (List.length evs > 100);
  List.iter
    (fun (e : Span.instant) ->
      let contains (r : Span.record) =
        Int64.compare r.Span.start_ns e.Span.at_ns <= 0
        && Int64.compare e.Span.at_ns (Int64.add r.Span.start_ns r.Span.dur_ns)
           <= 0
      in
      let innermost =
        List.fold_left
          (fun acc (r : Span.record) ->
            match acc with
            | Some (a : Span.record)
              when Int64.compare a.Span.start_ns r.Span.start_ns >= 0 ->
              acc
            | _ -> if contains r then Some r else acc)
          None rs
      in
      checki
        (Printf.sprintf "span of event %d (%s)" e.Span.seq
           (Span.kind e.Span.event))
        (match innermost with Some r -> r.Span.id | None -> -1)
        e.Span.span)
    evs

(* ------------------------------------------------------------------ *)
(* Quantile summaries                                                  *)
(* ------------------------------------------------------------------ *)

let test_quantile_estimation () =
  let m = Metrics.create () in
  let h = Metrics.histogram m ~buckets:[ 1.0; 2.0; 4.0; 8.0 ] "q_test" in
  check "empty quantile is nan" true (Float.is_nan (Metrics.quantile h 0.5));
  (* 100 observations of 1.5: everything sits in the (1, 2] bucket *)
  for _ = 1 to 100 do
    Metrics.observe h 1.5
  done;
  let p50 = Metrics.quantile h 0.5 in
  check "p50 inside the owning bucket" true (p50 > 1.0 && p50 <= 2.0);
  check "p0 is the lower edge" true (Metrics.quantile h 0.0 <= 1.0);
  (* beyond the largest finite bound: degrade to that bound *)
  Metrics.observe h 100.0;
  check "overflow degrades to top bound" true
    (Float.equal (Metrics.quantile h 0.999) 8.0);
  Alcotest.check_raises "q out of range" (Invalid_argument "Metrics.quantile")
    (fun () -> ignore (Metrics.quantile h 1.5))

let test_prometheus_quantile_lines () =
  let m = Metrics.create () in
  let h =
    Metrics.histogram m ~help:"latency" ~labels:[ ("ruleset", "oodb") ]
      "prairie_serve_search_seconds"
  in
  Metrics.observe h 0.002;
  Metrics.observe h 0.004;
  let s = Metrics.to_prometheus m in
  List.iter
    (fun (suffix, _) ->
      let name = "prairie_serve_search_seconds_" ^ suffix in
      check (name ^ " sample") true
        (contains s (name ^ "{ruleset=\"oodb\"} "));
      check (name ^ " typed as gauge") true
        (contains s ("# TYPE " ^ name ^ " gauge")))
    Metrics.summary_quantiles;
  (* empty histograms must not emit quantile series *)
  let m2 = Metrics.create () in
  ignore (Metrics.histogram m2 "empty_h");
  check "no quantiles for empty histogram" false
    (contains (Metrics.to_prometheus m2) "empty_h_p50")

(* ------------------------------------------------------------------ *)
(* The slow-query log                                                  *)
(* ------------------------------------------------------------------ *)

let observe log ~seconds =
  Slow_log.observe log ~ruleset:"oodb" ~fingerprint:"abc" ~seconds ~cost:1.0
    ~groups:10 ~budget_hit:false

let test_slow_log_threshold () =
  let log = Slow_log.create ~capacity:4 ~threshold:0.1 () in
  observe log ~seconds:0.05;
  checki "below threshold ignored" 0 (Slow_log.length log);
  observe log ~seconds:0.1;
  observe log ~seconds:0.25;
  checki "recorded at/above threshold" 2 (Slow_log.length log);
  for i = 1 to 5 do
    observe log ~seconds:(0.3 +. float_of_int i)
  done;
  checki "bounded ring" 4 (Slow_log.length log);
  checki "dropped" 3 (Slow_log.dropped log);
  let s = Slow_log.to_json log in
  check "to_json well-formed" true (json_well_formed s);
  check "json threshold" true (contains s "\"threshold_s\":0.1");
  check "json entries" true (contains s "\"fingerprint\":\"abc\"");
  check "json budget flag" true (contains s "\"budget_hit\":false}");
  Alcotest.check_raises "negative threshold"
    (Invalid_argument "Slow_log.create: negative threshold") (fun () ->
      ignore (Slow_log.create ~threshold:(-1.0) ()))

let test_slow_log_from_serve () =
  let cat =
    W.Catalogs.make (W.Catalogs.default_spec ~classes:3 ~indexed:true ~seed:101)
  in
  let opt = Opt.oodb_prairie cat in
  let reqs =
    List.map
      (fun joins -> Opt.request (W.Expressions.e1 cat ~joins))
      [ 1; 2; 1; 2 ]
  in
  (* threshold 0: every search is "slow" and must be recorded with its
     real fingerprint and group count *)
  let log = Slow_log.create ~threshold:0.0 () in
  let served = Opt.serve ~jobs:2 ~slow_log:log opt reqs in
  checki "served everything" 4 (List.length served);
  (* batch dedup: only the distinct searches run and get logged *)
  checki "one entry per fresh search" 2 (Slow_log.length log);
  List.iter
    (fun (e : Slow_log.entry) ->
      checks "ruleset name" "oodb-prairie" e.Slow_log.ruleset;
      check "groups recorded" true (e.Slow_log.groups > 0);
      check "fingerprint recorded" true (String.length e.Slow_log.fingerprint > 0))
    (Slow_log.entries log);
  (* a high threshold records nothing for these tiny queries *)
  let quiet = Slow_log.create ~threshold:3600.0 () in
  ignore (Opt.serve ~jobs:2 ~slow_log:quiet opt reqs);
  checki "fast searches not recorded" 0 (Slow_log.length quiet)

(* ------------------------------------------------------------------ *)
(* The telemetry endpoint, end to end                                  *)
(* ------------------------------------------------------------------ *)

let http_get port path =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect sock
        (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port));
      let req = Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" path in
      ignore (Unix.write_substring sock req 0 (String.length req));
      let buf = Bytes.create 4096 in
      let acc = Buffer.create 256 in
      let rec drain () =
        match Unix.read sock buf 0 (Bytes.length buf) with
        | 0 -> ()
        | n ->
          Buffer.add_subbytes acc buf 0 n;
          drain ()
      in
      drain ();
      Buffer.contents acc)

let test_telemetry_endpoint () =
  let m = Metrics.create () in
  let h =
    Metrics.histogram m ~labels:[ ("ruleset", "oodb") ]
      "prairie_serve_search_seconds"
  in
  Metrics.observe h 0.002;
  let log = Slow_log.create ~threshold:0.0 () in
  observe log ~seconds:0.5;
  let server = Telemetry.start ~metrics:m ~slow_log:log ~port:0 () in
  Fun.protect
    ~finally:(fun () -> Telemetry.stop server)
    (fun () ->
      let port = Telemetry.port server in
      check "ephemeral port resolved" true (port > 0);
      let health = http_get port "/healthz" in
      check "healthz 200" true (contains health "HTTP/1.0 200 OK");
      check "healthz body" true (contains health "ok\n");
      let metrics_resp = http_get port "/metrics" in
      check "metrics 200" true (contains metrics_resp "HTTP/1.0 200 OK");
      check "metrics has histogram" true
        (contains metrics_resp "prairie_serve_search_seconds_count");
      check "metrics has p99 summary" true
        (contains metrics_resp "prairie_serve_search_seconds_p99");
      let tracez = http_get port "/tracez" in
      check "tracez 200" true (contains tracez "HTTP/1.0 200 OK");
      check "tracez json" true (contains tracez "\"fingerprint\":\"abc\"");
      let missing = http_get port "/nope" in
      check "unknown route 404" true (contains missing "HTTP/1.0 404");
      (* sequential accept loop: it must survive many requests *)
      for _ = 1 to 5 do
        ignore (http_get port "/healthz")
      done;
      check "still alive" true (contains (http_get port "/healthz") "200 OK"));
  (* stop is idempotent and frees the port *)
  Telemetry.stop server

let test_telemetry_405 () =
  let server = Telemetry.start ~port:0 () in
  Fun.protect
    ~finally:(fun () -> Telemetry.stop server)
    (fun () ->
      let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect sock
            (Unix.ADDR_INET
               (Unix.inet_addr_of_string "127.0.0.1", Telemetry.port server));
          let req = "POST /metrics HTTP/1.0\r\n\r\n" in
          ignore (Unix.write_substring sock req 0 (String.length req));
          let buf = Bytes.create 1024 in
          let n = Unix.read sock buf 0 1024 in
          check "post rejected" true
            (contains (Bytes.sub_string buf 0 n) "HTTP/1.0 405"));
      (* an endpoint with no registry returns an empty 200, not an error *)
      let resp = http_get (Telemetry.port server) "/metrics" in
      check "no registry still 200" true (contains resp "HTTP/1.0 200 OK"))

(* ------------------------------------------------------------------ *)
(* Concurrent emitters                                                 *)
(* ------------------------------------------------------------------ *)

(* Several domains hammer one shared sink; the sink mutex must keep the
   sequence counter, the ring, the id allocator and the aggregate table
   exact — any lost update shows up as a count mismatch or a duplicate
   id in the retained window. *)
let test_span_concurrent_emitters () =
  let sink = Span.create ~capacity:256 () in
  let domains = 4 and per_domain = 200 in
  let emit () =
    for _ = 1 to per_domain do
      let root = Span.enter sink Span.Optimize in
      let child = Span.enter sink ~rule:"join-assoc" ~parent:root Span.Match in
      Span.exit sink child;
      Span.exit sink root
    done
  in
  let ds = List.init (domains - 1) (fun _ -> Domain.spawn emit) in
  emit ();
  List.iter Domain.join ds;
  let total = domains * per_domain * 2 in
  checki "spans" total (Span.span_count sink);
  checki "length" 256 (Span.length sink);
  checki "dropped" (total - 256) (Span.dropped sink);
  checki "root count" (domains * per_domain) (Span.root_count sink);
  let rs = Span.records sink in
  checki "records" 256 (List.length rs);
  let ids = List.sort_uniq Int.compare (List.map (fun r -> r.Span.id) rs) in
  checki "distinct ids" 256 (List.length ids);
  check "durations non-negative" true
    (List.for_all (fun r -> Int64.compare r.Span.dur_ns 0L >= 0) rs);
  (* the aggregate table is exact even though the ring dropped *)
  let aggs = Span.profile sink in
  let count = List.fold_left (fun acc a -> acc + a.Span.a_count) 0 aggs in
  checki "agg count" total count;
  let match_agg = List.find (fun a -> a.Span.a_phase = Span.Match) aggs in
  checki "match count" (domains * per_domain) match_agg.Span.a_count;
  check "chrome export well-formed" true
    (json_well_formed (Span.to_chrome sink))

let test_trace_concurrent_emitters () =
  let sink = Span.create ~capacity:128 () in
  let domains = 4 and per_domain = 500 in
  let emit () =
    for i = 1 to per_domain do
      Span.emit sink (Span.Memo_hit { gid = i })
    done
  in
  let ds = List.init (domains - 1) (fun _ -> Domain.spawn emit) in
  emit ();
  List.iter Domain.join ds;
  let total = domains * per_domain in
  checki "events" total (Span.event_count sink);
  checki "length" 128 (Span.length sink);
  checki "dropped" (total - 128) (Span.dropped sink);
  let evs = Span.events sink in
  checki "retained" 128 (List.length evs);
  List.iteri
    (fun i (e : Span.instant) ->
      checki "contiguous seq" (total - 128 + i) e.Span.seq)
    evs;
  check "jsonl well-formed" true
    (String.split_on_char '\n' (Span.to_jsonl sink)
    |> List.for_all (fun line -> line = "" || json_well_formed line))

(* A client that connects and never sends a byte must not wedge the
   sequential accept loop: the per-client deadline drops it and the next
   connection (a real health check) is served. *)
let test_telemetry_hung_client () =
  let server = Telemetry.start ~client_timeout:0.3 ~port:0 () in
  Fun.protect
    ~finally:(fun () -> Telemetry.stop server)
    (fun () ->
      let hung = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close hung with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect hung
            (Unix.ADDR_INET
               (Unix.inet_addr_of_string "127.0.0.1", Telemetry.port server));
          (* give accept a moment to pick the hung connection up first *)
          Unix.sleepf 0.05;
          let t0 = Unix.gettimeofday () in
          let resp = http_get (Telemetry.port server) "/healthz" in
          let elapsed = Unix.gettimeofday () -. t0 in
          check "healthz still answers" true (contains resp "ok");
          (* bounded by the hung client's deadline plus slack, far below
             the old unbounded (or 5 s per-read) wait *)
          check "answered within the deadline budget" true (elapsed < 2.0)))

(* Arbitrary request bytes against the request parser: each connection
   gets one of the four status lines the server knows, or is closed, and
   the sequential accept loop keeps answering /healthz after each one.
   The shapes that matter are generated on purpose: no CR, extra spaces,
   other methods, and heads of 8 KiB or more (past the read cap, where
   the server may close before the client finishes writing). *)
let gen_request =
  QCheck2.Gen.(
    let spaces = map (fun n -> String.make n ' ') (int_range 0 3) in
    let line =
      let+ meth =
        oneof
          [
            pure "GET";
            oneofl [ "POST"; "HEAD"; "get"; "" ];
            string_size ~gen:(char_range 'A' 'Z') (int_range 1 8);
          ]
      and+ s1 = spaces
      and+ path = oneofl [ "/healthz"; "/metrics"; "/tracez"; "/nope"; "/healthz?x=1"; "" ]
      and+ s2 = spaces
      and+ version = oneofl [ "HTTP/1.0"; "HTTP/1.1"; "" ]
      and+ eol = oneofl [ "\r\n\r\n"; "\r\n"; "\n\n"; "" ] in
      meth ^ s1 ^ path ^ s2 ^ version ^ eol
    in
    let long_head =
      let+ n = int_range 8192 12288 in
      "GET /" ^ String.make n 'a' ^ " HTTP/1.0\r\n\r\n"
    in
    frequency
      [ (3, line); (1, string_size ~gen:char (int_range 0 64)); (1, long_head) ])

let send_raw port req =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect sock
        (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port));
      Unix.setsockopt_float sock Unix.SO_RCVTIMEO 2.0;
      let acc = Buffer.create 256 in
      (try
         ignore (Unix.write_substring sock req 0 (String.length req));
         (* end of request: the server need not wait for its deadline *)
         Unix.shutdown sock Unix.SHUTDOWN_SEND;
         let buf = Bytes.create 4096 in
         let rec drain () =
           match Unix.read sock buf 0 (Bytes.length buf) with
           | 0 -> ()
           | n ->
             Buffer.add_subbytes acc buf 0 n;
             drain ()
         in
         drain ()
       with Unix.Unix_error ((EPIPE | ECONNRESET | ENOTCONN), _, _) -> ());
      Buffer.contents acc)

let test_telemetry_fuzz () =
  let known =
    [
      "HTTP/1.0 200 OK\r\n";
      "HTTP/1.0 400 Bad Request\r\n";
      "HTTP/1.0 404 Not Found\r\n";
      "HTTP/1.0 405 Method Not Allowed\r\n";
    ]
  in
  (* a server that closes first must not kill the client with SIGPIPE:
     the write then fails with EPIPE instead *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let server = Telemetry.start ~client_timeout:0.3 ~port:0 () in
  Fun.protect
    ~finally:(fun () -> Telemetry.stop server)
    (fun () ->
      let port = Telemetry.port server in
      QCheck2.Test.check_exn ~rand:(Random.State.make [| 22 |])
        (QCheck2.Test.make ~name:"arbitrary request bytes" ~count:50
           ~print:(fun s ->
             String.escaped
               (if String.length s > 80 then String.sub s 0 80 ^ "..." else s))
           gen_request
           (fun req ->
             let resp = send_raw port req in
             (resp = ""
             || List.exists (fun prefix -> String.starts_with ~prefix resp) known)
             && contains (http_get port "/healthz") "ok\n")))

let suites =
  [
    ( "spans.sink",
      [
        Alcotest.test_case "enter/exit basics" `Quick test_span_basics;
        Alcotest.test_case "ring wraparound keeps aggregates exact" `Quick
          test_span_wraparound;
        Alcotest.test_case "spans and events share one ring" `Quick
          test_spans_and_events_share_a_ring;
        prop_span_well_formed;
      ] );
    ( "spans.concurrency",
      [
        Alcotest.test_case "span sink survives concurrent emitters" `Quick
          test_span_concurrent_emitters;
        Alcotest.test_case "trace sink survives concurrent emitters" `Quick
          test_trace_concurrent_emitters;
      ] );
    ( "spans.engine",
      [
        Alcotest.test_case "sum(self) = rooted total, exactly" `Quick
          test_profile_self_sums_to_root_total;
        Alcotest.test_case "rooted total ~ wall time (Q7)" `Quick
          test_profile_total_close_to_wall;
        Alcotest.test_case "spans never change the result" `Quick
          test_spans_are_pure;
      ] );
    ( "spans.export",
      [
        Alcotest.test_case "chrome trace shape" `Quick test_chrome_export_shape;
        Alcotest.test_case "chrome view of an event trace" `Quick
          test_chrome_of_trace_shape;
        Alcotest.test_case "events name their innermost span (Q5)" `Quick
          test_events_name_their_span;
        Alcotest.test_case "quantile estimation" `Quick test_quantile_estimation;
        Alcotest.test_case "prometheus p50/p90/p99 lines" `Quick
          test_prometheus_quantile_lines;
      ] );
    ( "spans.slowlog",
      [
        Alcotest.test_case "threshold and bounded ring" `Quick
          test_slow_log_threshold;
        Alcotest.test_case "recorded from serve workers" `Quick
          test_slow_log_from_serve;
      ] );
    ( "spans.telemetry",
      [
        Alcotest.test_case "endpoint round trip" `Quick test_telemetry_endpoint;
        Alcotest.test_case "405 and registry-less metrics" `Quick
          test_telemetry_405;
        Alcotest.test_case "hung client cannot block /healthz" `Quick
          test_telemetry_hung_client;
        Alcotest.test_case "arbitrary request bytes (50 cases)" `Quick
          test_telemetry_fuzz;
      ] );
  ]
