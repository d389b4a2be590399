(* Threshold-based slow-query log: a mutex-protected bounded ring of
   the most recent searches whose wall time met the threshold.  It is
   shared across serve workers, so every entry point locks. *)

module Json = Prairie_util.Json

type entry = {
  seq : int;
  at : float;  (* Unix.gettimeofday at completion *)
  ruleset : string;
  fingerprint : string;
  seconds : float;
  cost : float;
  groups : int;
  budget_hit : bool;
}

type t = {
  mutex : Mutex.t;
  threshold : float;  (* seconds *)
  buf : entry option array;
  mutable n : int;  (* total recorded; next sequence number *)
}

let create ?(capacity = 256) ?(threshold = 0.1) () =
  if threshold < 0.0 then invalid_arg "Slow_log.create: negative threshold";
  {
    mutex = Mutex.create ();
    threshold;
    buf = Array.make (max 1 capacity) None;
    n = 0;
  }

let threshold t = t.threshold
let capacity t = Array.length t.buf

let observe t ~ruleset ~fingerprint ~seconds ~cost ~groups ~budget_hit =
  if seconds >= t.threshold then
    Mutex.protect t.mutex (fun () ->
        let e =
          {
            seq = t.n;
            at = Unix.gettimeofday ();
            ruleset;
            fingerprint;
            seconds;
            cost;
            groups;
            budget_hit;
          }
        in
        t.buf.(t.n mod Array.length t.buf) <- Some e;
        t.n <- t.n + 1)

let seq t = Mutex.protect t.mutex (fun () -> t.n)

let entries t =
  Mutex.protect t.mutex (fun () ->
      let len = min t.n (Array.length t.buf) in
      let first = t.n - len in
      List.init len (fun i ->
          match t.buf.((first + i) mod Array.length t.buf) with
          | Some e -> e
          | None -> assert false))

let length t = List.length (entries t)
let dropped t = seq t - length t

let entry_to_json e =
  Printf.sprintf
    "{\"seq\":%d,\"at\":%s,\"ruleset\":%s,\"fingerprint\":%s,\"seconds\":%s,\"cost\":%s,\"groups\":%d,\"budget_hit\":%b}"
    e.seq (Json.float e.at)
    (Json.string e.ruleset)
    (Json.string e.fingerprint)
    (Json.float e.seconds) (Json.float e.cost) e.groups
    e.budget_hit

(* single JSON document for the /tracez endpoint *)
let to_json t =
  let es = entries t in
  Printf.sprintf
    "{\"threshold_s\":%s,\"recorded\":%d,\"entries\":[%s]}"
    (Json.float t.threshold)
    (seq t)
    (String.concat "," (List.map entry_to_json es))
