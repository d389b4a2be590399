(* The search-observability sink: hierarchical timed spans with per-rule
   attribution, and search events as instants inside them.

   A sink records completed spans and emitted events into one bounded
   ring buffer (oldest dropped first) and folds every span exit into an
   exact per-(phase, rule) aggregate table, so profiles stay accurate
   even when the ring wraps.  Parents are explicit handles threaded by
   the caller — there is no global (or domain-local) "current span"
   variable.  Sink state is mutex-protected so concurrent emitters may
   share one sink; handle trees remain single-domain.

   Timestamps come from [Unix.gettimeofday] (OCaml 5.1 ships no
   monotonic clock in the stdlib and Mtime is not vendored) made
   strictly monotonic per sink by clamping: a reading that does not
   advance past the previous one is bumped by 1 ns.  Within one sink
   this guarantees start < child start < child end < end for properly
   nested spans, and an event emitted under a span lies strictly inside
   it. *)

module Json = Prairie_util.Json

type phase =
  | Optimize
  | Explore
  | Match
  | Apply
  | Cost
  | Enforcer
  | Memo_insert

let phase_label = function
  | Optimize -> "optimize"
  | Explore -> "explore"
  | Match -> "match"
  | Apply -> "apply"
  | Cost -> "cost"
  | Enforcer -> "enforcer"
  | Memo_insert -> "memo_insert"

type reason =
  | Test_failed
  | Pruned of float

type event =
  | Group_created of { gid : int }
  | Groups_merged of { survivor : int; dead : int }
  | Trans_matched of { rule : string; gid : int; bindings : int }
  | Trans_applied of { rule : string; gid : int; fresh : bool }
  | Trans_rejected of { rule : string; gid : int; reason : reason }
  | Impl_matched of { rule : string; gid : int }
  | Impl_applied of { rule : string; gid : int }
  | Impl_rejected of { rule : string; gid : int; reason : reason }
  | Enforcer_inserted of { alg : string; gid : int }
  | Memo_hit of { gid : int }
  | Winner_changed of {
      gid : int;
      alg : string;
      old_cost : float option;
      new_cost : float;
    }
  | Budget_hit of { groups : int }

let kind = function
  | Group_created _ -> "group_created"
  | Groups_merged _ -> "groups_merged"
  | Trans_matched _ -> "trans_matched"
  | Trans_applied _ -> "trans_applied"
  | Trans_rejected _ -> "trans_rejected"
  | Impl_matched _ -> "impl_matched"
  | Impl_applied _ -> "impl_applied"
  | Impl_rejected _ -> "impl_rejected"
  | Enforcer_inserted _ -> "enforcer_inserted"
  | Memo_hit _ -> "memo_hit"
  | Winner_changed _ -> "winner_changed"
  | Budget_hit _ -> "budget_hit"

let reason_label = function
  | Test_failed -> "test_failed"
  | Pruned _ -> "pruned"

type handle = {
  h_id : int;
  h_parent : handle option;
  h_phase : phase;
  h_rule : string option;
  h_start : int64;
  h_minor0 : float;
  h_major0 : float;
  mutable h_children_ns : int64;  (* sum of direct children durations *)
}

type record = {
  id : int;
  parent : int;  (* -1 for roots *)
  phase : phase;
  rule : string option;
  domain : int;
  start_ns : int64;
  dur_ns : int64;
  self_ns : int64;  (* dur minus direct children *)
  minor_words : float;
  major_words : float;
}

type instant = { seq : int; at_ns : int64; span : int; event : event }

type agg = {
  a_phase : phase;
  a_rule : string option;
  mutable a_count : int;
  mutable a_total_ns : int64;
  mutable a_self_ns : int64;
  mutable a_minor_words : float;
  mutable a_major_words : float;
}

type entry = Closed of record | Instant of instant

type t = {
  buf : entry option array;
  mutable n : int;  (* entries written; the ring cursor *)
  mutable spans : int;  (* spans completed; events are [n - spans] *)
  mutable next_seq : int;  (* span ids and event sequence numbers *)
  mutable last_ns : int64;  (* monotonic clamp state *)
  mutable root_total_ns : int64;
  mutable root_count : int;
  agg : (string, agg) Hashtbl.t;  (* keyed by phase_label ^ "/" ^ rule *)
  mutex : Mutex.t;
      (* guards every field above: a sink may be shared by concurrent
         emitters (service worker domains, the telemetry domain), and the agg
         table in particular corrupts under unsynchronized writes.  Handle
         trees stay single-domain — only sink state is protected. *)
}

let create ?(capacity = 65536) () =
  {
    buf = Array.make (max 1 capacity) None;
    n = 0;
    spans = 0;
    next_seq = 0;
    last_ns = 0L;
    root_total_ns = 0L;
    root_count = 0;
    agg = Hashtbl.create 64;
    mutex = Mutex.create ();
  }

let capacity t = Array.length t.buf
let span_count t = Mutex.protect t.mutex (fun () -> t.spans)
let event_count t = Mutex.protect t.mutex (fun () -> t.n - t.spans)
let length_unlocked t = min t.n (Array.length t.buf)
let length t = Mutex.protect t.mutex (fun () -> length_unlocked t)
let dropped t = Mutex.protect t.mutex (fun () -> t.n - length_unlocked t)
let root_total_ns t = Mutex.protect t.mutex (fun () -> t.root_total_ns)
let root_count t = Mutex.protect t.mutex (fun () -> t.root_count)

(* strictly increasing per sink: gettimeofday has µs resolution, so
   back-to-back readings tie frequently; ties advance by 1 ns *)
let now_ns t =
  let raw = Int64.of_float (Unix.gettimeofday () *. 1e9) in
  let ns =
    if Int64.compare raw t.last_ns > 0 then raw else Int64.add t.last_ns 1L
  in
  t.last_ns <- ns;
  ns

(* callers hold the mutex *)
let next_seq t =
  let s = t.next_seq in
  t.next_seq <- s + 1;
  s

let push t e =
  t.buf.(t.n mod Array.length t.buf) <- Some e;
  t.n <- t.n + 1

let enter t ?rule ?parent phase =
  let id, start = Mutex.protect t.mutex (fun () -> (next_seq t, now_ns t)) in
  let minor, _promoted, major = Gc.counters () in
  {
    h_id = id;
    h_parent = parent;
    h_phase = phase;
    h_rule = rule;
    h_start = start;
    h_minor0 = minor;
    h_major0 = major;
    h_children_ns = 0L;
  }

let agg_key phase rule =
  match rule with
  | None -> phase_label phase
  | Some r -> phase_label phase ^ "/" ^ r

let exit t h =
  let minor, _promoted, major = Gc.counters () in
  let minor_w = minor -. h.h_minor0 and major_w = major -. h.h_major0 in
  Mutex.protect t.mutex @@ fun () ->
  let stop = now_ns t in
  let dur = Int64.sub stop h.h_start in
  let self = Int64.sub dur h.h_children_ns in
  (match h.h_parent with
  | Some p -> p.h_children_ns <- Int64.add p.h_children_ns dur
  | None ->
    t.root_total_ns <- Int64.add t.root_total_ns dur;
    t.root_count <- t.root_count + 1);
  push t
    (Closed
       {
         id = h.h_id;
         parent = (match h.h_parent with Some p -> p.h_id | None -> -1);
         phase = h.h_phase;
         rule = h.h_rule;
         domain = (Domain.self () :> int);
         start_ns = h.h_start;
         dur_ns = dur;
         self_ns = self;
         minor_words = minor_w;
         major_words = major_w;
       });
  t.spans <- t.spans + 1;
  let key = agg_key h.h_phase h.h_rule in
  match Hashtbl.find_opt t.agg key with
  | Some a ->
    a.a_count <- a.a_count + 1;
    a.a_total_ns <- Int64.add a.a_total_ns dur;
    a.a_self_ns <- Int64.add a.a_self_ns self;
    a.a_minor_words <- a.a_minor_words +. minor_w;
    a.a_major_words <- a.a_major_words +. major_w
  | None ->
    Hashtbl.replace t.agg key
      {
        a_phase = h.h_phase;
        a_rule = h.h_rule;
        a_count = 1;
        a_total_ns = dur;
        a_self_ns = self;
        a_minor_words = minor_w;
        a_major_words = major_w;
      }

let emit t ?span event =
  let span = match span with Some h -> h.h_id | None -> -1 in
  Mutex.protect t.mutex (fun () ->
      let seq = next_seq t in
      push t (Instant { seq; at_ns = now_ns t; span; event }))

let entries t =
  Mutex.protect t.mutex (fun () ->
      List.init (length_unlocked t) (fun i ->
          let s = t.n - length_unlocked t + i in
          match t.buf.(s mod Array.length t.buf) with
          | Some e -> e
          | None -> assert false (* slots below [length] are always filled *)))

let records t =
  List.filter_map (function Closed r -> Some r | Instant _ -> None) (entries t)

let events t =
  List.filter_map (function Instant i -> Some i | Closed _ -> None) (entries t)

let clear t =
  Mutex.protect t.mutex @@ fun () ->
  Array.fill t.buf 0 (Array.length t.buf) None;
  t.n <- 0;
  t.spans <- 0;
  t.next_seq <- 0;
  t.root_total_ns <- 0L;
  t.root_count <- 0;
  Hashtbl.reset t.agg

(* copy the aggregates out under the lock so a concurrent [exit] cannot
   mutate a cell mid-sort or mid-render *)
let profile t =
  Mutex.protect t.mutex (fun () ->
      Hashtbl.fold
        (fun _ a acc -> { a with a_count = a.a_count } :: acc)
        t.agg [])
  |> List.sort (fun a b ->
         match Int64.compare b.a_self_ns a.a_self_ns with
         | 0 -> compare (agg_key a.a_phase a.a_rule) (agg_key b.a_phase b.a_rule)
         | c -> c)

(* ---------------- JSON lines ---------------- *)

let reason_fields = function
  | Test_failed -> ""
  | Pruned limit -> Printf.sprintf ",\"limit\":%s" (Json.float limit)

let event_to_json { seq; span; event; _ } =
  let tail =
    match event with
    | Group_created { gid } -> Printf.sprintf "\"gid\":%d" gid
    | Groups_merged { survivor; dead } ->
      Printf.sprintf "\"survivor\":%d,\"dead\":%d" survivor dead
    | Trans_matched { rule; gid; bindings } ->
      Printf.sprintf "\"rule\":%s,\"gid\":%d,\"bindings\":%d"
        (Json.string rule) gid bindings
    | Trans_applied { rule; gid; fresh } ->
      Printf.sprintf "\"rule\":%s,\"gid\":%d,\"fresh\":%b" (Json.string rule)
        gid fresh
    | Impl_matched { rule; gid }
    | Impl_applied { rule; gid } ->
      Printf.sprintf "\"rule\":%s,\"gid\":%d" (Json.string rule) gid
    | Trans_rejected { rule; gid; reason } | Impl_rejected { rule; gid; reason }
      ->
      Printf.sprintf "\"rule\":%s,\"gid\":%d,\"reason\":%s%s"
        (Json.string rule) gid
        (Json.string (reason_label reason))
        (reason_fields reason)
    | Enforcer_inserted { alg; gid } ->
      Printf.sprintf "\"alg\":%s,\"gid\":%d" (Json.string alg) gid
    | Memo_hit { gid } -> Printf.sprintf "\"gid\":%d" gid
    | Winner_changed { gid; alg; old_cost; new_cost } ->
      Printf.sprintf "\"gid\":%d,\"alg\":%s,\"old_cost\":%s,\"new_cost\":%s"
        gid (Json.string alg)
        (match old_cost with None -> "null" | Some c -> Json.float c)
        (Json.float new_cost)
    | Budget_hit { groups } -> Printf.sprintf "\"groups\":%d" groups
  in
  Printf.sprintf "{\"seq\":%d,\"span\":%d,\"event\":%s,%s}" seq span
    (Json.string (kind event))
    tail

let to_jsonl t =
  let buf = Buffer.create 4096 in
  List.iter
    (fun i ->
      Buffer.add_string buf (event_to_json i);
      Buffer.add_char buf '\n')
    (events t);
  Buffer.contents buf

(* ---------------- Chrome trace-event exporter ---------------- *)

(* https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
   Spans are "X" complete events, events thread-scoped "i" instant events
   on the thread of their span; ts/dur in microseconds, rebased so the
   earliest retained entry is 0.  Opens in Perfetto and chrome://tracing. *)

let us_of_ns ns = Int64.to_float ns /. 1e3

let chrome_span buf ~base r =
  let name =
    match r.rule with
    | None -> phase_label r.phase
    | Some rule -> phase_label r.phase ^ ":" ^ rule
  in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"ts\":%s,\"dur\":%s,\"pid\":1,\"tid\":%d,\"args\":{\"id\":%d,\"parent\":%d,\"self_us\":%s,\"minor_words\":%s,\"major_words\":%s%s}}"
       (Json.string name)
       (Json.string (phase_label r.phase))
       (Json.float (us_of_ns (Int64.sub r.start_ns base)))
       (Json.float (us_of_ns r.dur_ns))
       r.domain r.id r.parent
       (Json.float (us_of_ns r.self_ns))
       (Json.float r.minor_words)
       (Json.float r.major_words)
       (match r.rule with
       | None -> ""
       | Some rule -> Printf.sprintf ",\"rule\":%s" (Json.string rule)))

let chrome_instant buf ~base ~tid i =
  Buffer.add_string buf
    (Printf.sprintf
       "{\"name\":%s,\"cat\":\"event\",\"ph\":\"i\",\"s\":\"t\",\"ts\":%s,\"pid\":1,\"tid\":%d,\"args\":%s}"
       (Json.string (kind i.event))
       (Json.float (us_of_ns (Int64.sub i.at_ns base)))
       tid (event_to_json i))

let to_chrome t =
  let es = entries t in
  let start = function Closed r -> r.start_ns | Instant i -> i.at_ns in
  let base =
    List.fold_left
      (fun acc e -> if Int64.compare (start e) acc < 0 then start e else acc)
      (match es with [] -> 0L | e :: _ -> start e)
      es
  in
  let domain_of = Hashtbl.create 256 in
  List.iter
    (function
      | Closed r -> Hashtbl.replace domain_of r.id r.domain
      | Instant _ -> ())
    es;
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[";
  Buffer.add_string buf
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"prairie\"}}";
  List.iter
    (fun e ->
      Buffer.add_char buf ',';
      match e with
      | Closed r -> chrome_span buf ~base r
      | Instant i ->
        let tid = Option.value ~default:0 (Hashtbl.find_opt domain_of i.span) in
        chrome_instant buf ~base ~tid i)
    es;
  Buffer.add_string buf
    (Printf.sprintf
       "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"spans\":%d,\"events\":%d,\"dropped\":%d}}"
       (span_count t) (event_count t) (dropped t));
  Buffer.contents buf
