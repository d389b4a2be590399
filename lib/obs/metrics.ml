type hist_state = {
  bounds : float array;  (* sorted, strictly increasing, finite *)
  counts : int array;  (* per-bucket (non-cumulative); length bounds + 1 *)
  mutable sum : float;
  mutable count : int;
}

type kind =
  | Counter of int ref
  | Gauge of float ref
  | Histogram of hist_state

type instrument = {
  name : string;
  help : string;
  labels : (string * string) list;
  kind : kind;
  lock : Mutex.t;  (* the owning registry's mutex *)
}

type t = {
  mutex : Mutex.t;
  mutable instruments : instrument list;  (* registration order, reversed *)
}

type counter = instrument
type gauge = instrument
type histogram = instrument

let create () = { mutex = Mutex.create (); instruments = [] }

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

let same_kind a b =
  match (a, b) with
  | Counter _, Counter _ | Gauge _, Gauge _ | Histogram _, Histogram _ -> true
  | _ -> false

let norm_labels labels =
  List.sort (fun (a, _) (b, _) -> String.compare a b) labels

let register t ~help ~labels name fresh =
  let labels = norm_labels labels in
  Mutex.protect t.mutex (fun () ->
      let existing =
        List.find_opt
          (fun i -> String.equal i.name name && i.labels = labels)
          t.instruments
      in
      match existing with
      | Some i ->
        let k = fresh () in
        if not (same_kind i.kind k) then
          invalid_arg
            (Printf.sprintf "Metrics: %s already registered as a %s" name
               (kind_name i.kind));
        i
      | None ->
        (match
           List.find_opt (fun i -> String.equal i.name name) t.instruments
         with
        | Some i when not (same_kind i.kind (fresh ())) ->
          invalid_arg
            (Printf.sprintf "Metrics: %s already registered as a %s" name
               (kind_name i.kind))
        | _ -> ());
        let i = { name; help; labels; kind = fresh (); lock = t.mutex } in
        t.instruments <- i :: t.instruments;
        i)

let counter t ?(help = "") ?(labels = []) name =
  register t ~help ~labels name (fun () -> Counter (ref 0))

let inc ?(by = 1) c =
  if by < 0 then invalid_arg "Metrics.inc: negative increment";
  match c.kind with
  | Counter r -> Mutex.protect c.lock (fun () -> r := !r + by)
  | _ -> assert false

let counter_value c =
  match c.kind with
  | Counter r -> Mutex.protect c.lock (fun () -> !r)
  | _ -> assert false

let gauge t ?(help = "") ?(labels = []) name =
  register t ~help ~labels name (fun () -> Gauge (ref 0.0))

let set g v =
  match g.kind with
  | Gauge r -> Mutex.protect g.lock (fun () -> r := v)
  | _ -> assert false

let gauge_value g =
  match g.kind with
  | Gauge r -> Mutex.protect g.lock (fun () -> !r)
  | _ -> assert false

let log_buckets = List.init 20 (fun i -> 1e-5 *. (2.0 ** float_of_int i))

let histogram t ?(help = "") ?(labels = []) ?buckets name =
  let bounds =
    let bs = match buckets with Some bs -> bs | None -> log_buckets in
    bs
    |> List.filter Float.is_finite
    |> List.sort_uniq Float.compare
    |> Array.of_list
  in
  if Array.length bounds = 0 then invalid_arg "Metrics.histogram: no buckets";
  register t ~help ~labels name (fun () ->
      Histogram
        {
          bounds;
          counts = Array.make (Array.length bounds + 1) 0;
          sum = 0.0;
          count = 0;
        })

(* index of the first bucket with [v <= bound]; the overflow bucket else *)
let bucket_index bounds v =
  let n = Array.length bounds in
  let rec go lo hi =
    (* invariant: every bound below [lo] is < v; v <= every bound >= [hi] *)
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if v <= bounds.(mid) then go lo mid else go (mid + 1) hi
  in
  go 0 n

let observe h v =
  match h.kind with
  | Histogram s ->
    Mutex.protect h.lock (fun () ->
        let i = bucket_index s.bounds v in
        s.counts.(i) <- s.counts.(i) + 1;
        s.sum <- s.sum +. v;
        s.count <- s.count + 1)
  | _ -> assert false

let histogram_count h =
  match h.kind with
  | Histogram s -> Mutex.protect h.lock (fun () -> s.count)
  | _ -> assert false

let histogram_sum h =
  match h.kind with
  | Histogram s -> Mutex.protect h.lock (fun () -> s.sum)
  | _ -> assert false

(* Estimate the q-quantile by linear interpolation inside the first
   cumulative bucket reaching q*count. Observations are assumed
   non-negative (latencies/sizes), so the first bucket's lower edge is
   0; the overflow bucket has no upper edge and degrades to the
   largest finite bound. nan when empty. *)
let quantile h q =
  if not (Float.is_finite q) || q < 0.0 || q > 1.0 then
    invalid_arg "Metrics.quantile";
  match h.kind with
  | Histogram s ->
    Mutex.protect h.lock (fun () ->
        if s.count = 0 then nan
        else begin
          let target = q *. float_of_int s.count in
          let n = Array.length s.bounds in
          let rec go i cum lower =
            if i >= n then s.bounds.(n - 1)
            else
              let cum' = cum + s.counts.(i) in
              if float_of_int cum' >= target && s.counts.(i) > 0 then
                let frac =
                  (target -. float_of_int cum) /. float_of_int s.counts.(i)
                in
                lower +. ((s.bounds.(i) -. lower) *. Float.max 0.0 (Float.min 1.0 frac))
              else go (i + 1) cum' s.bounds.(i)
          in
          go 0 0 0.0
        end)
  | _ -> assert false

let summary_quantiles = [ ("p50", 0.5); ("p90", 0.9); ("p99", 0.99) ]

let buckets h =
  match h.kind with
  | Histogram s ->
    Mutex.protect h.lock (fun () ->
        let acc = ref 0 in
        let finite =
          Array.to_list
            (Array.mapi
               (fun i ub ->
                 acc := !acc + s.counts.(i);
                 (ub, !acc))
               s.bounds)
        in
        finite @ [ (infinity, s.count) ])
  | _ -> assert false

(* ---------------- exporters ---------------- *)

let escape_label_value s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let escape_help s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let fmt_float f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%g" f

let fmt_bound ub = if Float.is_finite ub then fmt_float ub else "+Inf"

let label_block labels =
  match labels with
  | [] -> ""
  | ls ->
    "{"
    ^ String.concat ","
        (List.map
           (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label_value v))
           ls)
    ^ "}"

(* instruments in registration order, grouped by metric name (a name's
   HELP/TYPE header is printed once, before its first series) *)
let ordered t = Mutex.protect t.mutex (fun () -> List.rev t.instruments)

let to_prometheus t =
  let buf = Buffer.create 1024 in
  let seen_header = Hashtbl.create 16 in
  List.iter
    (fun i ->
      if not (Hashtbl.mem seen_header i.name) then begin
        Hashtbl.replace seen_header i.name ();
        if i.help <> "" then
          Buffer.add_string buf
            (Printf.sprintf "# HELP %s %s\n" i.name (escape_help i.help));
        Buffer.add_string buf
          (Printf.sprintf "# TYPE %s %s\n" i.name (kind_name i.kind))
      end;
      match i.kind with
      | Counter r ->
        Buffer.add_string buf
          (Printf.sprintf "%s%s %d\n" i.name (label_block i.labels)
             (Mutex.protect i.lock (fun () -> !r)))
      | Gauge r ->
        Buffer.add_string buf
          (Printf.sprintf "%s%s %s\n" i.name (label_block i.labels)
             (fmt_float (Mutex.protect i.lock (fun () -> !r))))
      | Histogram _ ->
        let bs = buckets i and sum = histogram_sum i in
        let count = histogram_count i in
        List.iter
          (fun (ub, c) ->
            Buffer.add_string buf
              (Printf.sprintf "%s_bucket%s %d\n" i.name
                 (label_block (i.labels @ [ ("le", fmt_bound ub) ]))
                 c))
          bs;
        Buffer.add_string buf
          (Printf.sprintf "%s_sum%s %s\n" i.name (label_block i.labels)
             (fmt_float sum));
        Buffer.add_string buf
          (Printf.sprintf "%s_count%s %d\n" i.name (label_block i.labels)
             count))
    (ordered t);
  (* quantile summaries as derived gauges, emitted after the primary
     series so each derived family stays grouped (suffix-major order) *)
  let hists =
    List.filter
      (fun i -> match i.kind with Histogram _ -> true | _ -> false)
      (ordered t)
  in
  List.iter
    (fun (suffix, q) ->
      List.iter
        (fun i ->
          if histogram_count i > 0 then begin
            let name = i.name ^ "_" ^ suffix in
            if not (Hashtbl.mem seen_header name) then begin
              Hashtbl.replace seen_header name ();
              Buffer.add_string buf
                (Printf.sprintf "# HELP %s %s quantile of %s\n" name suffix
                   i.name);
              Buffer.add_string buf (Printf.sprintf "# TYPE %s gauge\n" name)
            end;
            Buffer.add_string buf
              (Printf.sprintf "%s%s %s\n" name (label_block i.labels)
                 (fmt_float (quantile i q)))
          end)
        hists)
    summary_quantiles;
  Buffer.contents buf

let output oc t = output_string oc (to_prometheus t)
