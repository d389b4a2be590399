type entry = {
  plan : Prairie_volcano.Plan.t option;
  cost : float;
  groups : int;
  budget_hit : bool;
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  invalidations : int;
}

type key = string * string (* rule-set name, query fingerprint *)

(* Intrusive doubly-linked recency list: [first] is the most recently used
   node, [last] the eviction candidate.  Every node is also in [table]. *)
type node = {
  key : key;
  mutable entry : entry;
  mutable prev : node option;
  mutable next : node option;
}

type t = {
  lock : Mutex.t;
  table : (key, node) Hashtbl.t;
  cap : int;
  mutable first : node option;
  mutable last : node option;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable invalidations : int;
}

let create ?(capacity = 1024) () =
  {
    lock = Mutex.create ();
    table = Hashtbl.create 256;
    cap = max 1 capacity;
    first = None;
    last = None;
    hits = 0;
    misses = 0;
    evictions = 0;
    invalidations = 0;
  }

let capacity t = t.cap
let length t = Mutex.protect t.lock (fun () -> Hashtbl.length t.table)

let unlink t n =
  (match n.prev with None -> t.first <- n.next | Some p -> p.next <- n.next);
  (match n.next with None -> t.last <- n.prev | Some s -> s.prev <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.first;
  n.prev <- None;
  (match t.first with Some f -> f.prev <- Some n | None -> t.last <- Some n);
  t.first <- Some n

let find t ~ruleset ~fingerprint =
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.table (ruleset, fingerprint) with
      | Some n ->
        t.hits <- t.hits + 1;
        unlink t n;
        push_front t n;
        Some n.entry
      | None ->
        t.misses <- t.misses + 1;
        None)

let add t ~ruleset ~fingerprint entry =
  Mutex.protect t.lock (fun () ->
      let key = (ruleset, fingerprint) in
      match Hashtbl.find_opt t.table key with
      | Some n ->
        n.entry <- entry;
        unlink t n;
        push_front t n
      | None ->
        if Hashtbl.length t.table >= t.cap then (
          match t.last with
          | Some victim ->
            unlink t victim;
            Hashtbl.remove t.table victim.key;
            t.evictions <- t.evictions + 1
          | None -> ());
        let n = { key; entry; prev = None; next = None } in
        push_front t n;
        Hashtbl.add t.table key n)

let invalidate t ~ruleset =
  Mutex.protect t.lock (fun () ->
      let victims =
        Hashtbl.fold
          (fun (rs, _) n acc -> if String.equal rs ruleset then n :: acc else acc)
          t.table []
      in
      List.iter
        (fun n ->
          unlink t n;
          Hashtbl.remove t.table n.key;
          t.invalidations <- t.invalidations + 1)
        victims)

let clear t =
  Mutex.protect t.lock (fun () ->
      t.invalidations <- t.invalidations + Hashtbl.length t.table;
      Hashtbl.reset t.table;
      t.first <- None;
      t.last <- None)

let stats t =
  Mutex.protect t.lock (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
        invalidations = t.invalidations;
      })

let hit_rate t =
  let s = stats t in
  let total = s.hits + s.misses in
  if total = 0 then 0.0 else float_of_int s.hits /. float_of_int total

let pp_stats ppf t =
  let s = stats t in
  Format.fprintf ppf
    "@[<h>%d/%d entries, %d hits, %d misses (%.1f%% hit rate), %d evictions, \
     %d invalidations@]"
    (length t) (capacity t) s.hits s.misses
    (100.0 *. hit_rate t)
    s.evictions s.invalidations
