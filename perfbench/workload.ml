(* What a workload hands the runner in perf.ml.

   The runner sets a workload up several times (timing each set-up), runs
   the traced pass when asked, measures for the requested seconds and ends
   with the correctness pass.  Per-layer values may come from any of the
   three: the traced pass yields span, statistics and allocation numbers,
   while counters that cost nothing to read (cache statistics, min-of-k
   ratios) come from the untraced measurement and the correctness pass. *)

type measured = {
  latencies_ms : float array;  (** one per completed operation *)
  items : int;  (** work items those operations completed *)
  busy_s : float;  (** summed duration of those operations *)
  attempted : int;
  failed : int;  (** operations that raised or returned no plan *)
  m_layers : (string * float) list;
}

type check = {
  checked : int;
  mismatches : string list;  (** one line per failed check *)
  notes : string list;  (** what the pass covered, vacuous parts included *)
  c_layers : (string * float) list;
}

type t = {
  trace : unit -> (string * float) list;
  measure : seconds:float -> measured;
  check : unit -> check;
}

type spec = {
  name : string;
  op : string;  (** what one latency sample times *)
  item : string;  (** what throughput counts *)
  setup : seed:int -> t;
}

(* [f ()] counted as one attempt: an exception is a failure, not a crash,
   so one bad input cannot hide the rest of the run. *)
let attempt ~failed f =
  match f () with
  | v -> Some v
  | exception e ->
    incr failed;
    Printf.eprintf "operation failed: %s\n%!" (Printexc.to_string e);
    None

let same_cost a b =
  Float.equal a b || Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs a)

let plan_digest = function
  | Some p -> Prairie.Expr.fingerprint (Prairie_volcano.Plan.to_expr p)
  | None -> "-"

(* A correctness pass's tally: [expect c ok fmt ...] counts one check and
   records the formatted message when [ok] is false. *)
type tally = { mutable count : int; mutable failures : string list }

let tally () = { count = 0; failures = [] }

let expect c ok fmt =
  Printf.ksprintf
    (fun msg ->
      c.count <- c.count + 1;
      if not ok then c.failures <- msg :: c.failures)
    fmt
