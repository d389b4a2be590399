(** Threshold-based slow-query log.

    A mutex-protected bounded ring of the most recent searches whose
    wall time met the threshold — shared safely across serve worker
    domains, rendered as JSONL for files and as a single JSON document
    for the telemetry [/tracez] endpoint. *)

type entry = {
  seq : int;
  at : float;  (** [Unix.gettimeofday] at completion *)
  ruleset : string;
  fingerprint : string;  (** canonical query fingerprint *)
  seconds : float;
  cost : float;
  groups : int;
  budget_hit : bool;
}

type t

val create : ?capacity:int -> ?threshold:float -> unit -> t
(** [capacity] bounds retained entries (default 256); [threshold] is
    in seconds (default 0.1). Raises [Invalid_argument] on a negative
    threshold. *)

val threshold : t -> float
val capacity : t -> int

val observe :
  t ->
  ruleset:string ->
  fingerprint:string ->
  seconds:float ->
  cost:float ->
  groups:int ->
  budget_hit:bool ->
  unit
(** Records the search iff [seconds >= threshold t]. Thread-safe.  Only
    fresh searches are observed: a plan served from the cache ran none. *)

val seq : t -> int
(** Total entries recorded, including dropped ones. *)

val length : t -> int
val dropped : t -> int

val entries : t -> entry list
(** Retained entries, oldest first. *)

val to_json : t -> string
