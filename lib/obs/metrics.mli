(** A named registry of counters, gauges and log-bucketed histograms.

    Service-level telemetry for the plan service and the optimizers:
    instruments are registered by (name, labels) — registering the same
    pair twice returns the same instrument, so call sites can look their
    instrument up on every request without caring who created it.  Label
    sets make per-ruleset / per-rule / per-worker breakdowns cheap.

    All mutation goes through the registry's mutex, so instruments can be
    updated from every domain of the plan service's pool.

    One exporter: {!to_prometheus} (Prometheus text exposition format,
    with proper label-value and help escaping). *)

type t
(** The registry. *)

type counter
type gauge
type histogram

val create : unit -> t

val counter : t -> ?help:string -> ?labels:(string * string) list -> string -> counter
(** Register (or look up) a monotonic counter.
    @raise Invalid_argument if [name] is already registered with a
    different instrument kind. *)

val inc : ?by:int -> counter -> unit
(** Add [by] (default 1; must be [>= 0]). *)

val counter_value : counter -> int

val gauge : t -> ?help:string -> ?labels:(string * string) list -> string -> gauge
val set : gauge -> float -> unit
val gauge_value : gauge -> float

val log_buckets : float list
(** The default histogram bucket upper bounds, [1e-5 *. 2^i] for
    [i = 0 .. 19]: 10µs to ~5.2s, covering optimizer latencies.  The
    implicit [+Inf] bucket is always added by {!histogram}. *)

val histogram :
  t ->
  ?help:string ->
  ?labels:(string * string) list ->
  ?buckets:float list ->
  string ->
  histogram
(** Register (or look up) a histogram with the given finite bucket upper
    bounds (default {!log_buckets}; sorted, deduplicated; a [+Inf]
    bucket is appended).  An observation [v] lands in every bucket with
    [v <= upper_bound] (cumulative, Prometheus-style). *)

val observe : histogram -> float -> unit

val histogram_count : histogram -> int
val histogram_sum : histogram -> float

val buckets : histogram -> (float * int) list
(** (upper bound, cumulative count) pairs, including the final
    [(infinity, count)]. *)

val quantile : histogram -> float -> float
(** [quantile h q] estimates the [q]-quantile ([0. <= q <= 1.]) by
    linear interpolation inside the first cumulative bucket reaching
    [q * count], assuming non-negative observations (the first
    bucket's lower edge is 0).  Values past the largest finite bound
    degrade to that bound; [nan] when the histogram is empty.
    @raise Invalid_argument if [q] is outside [0., 1.]. *)

val summary_quantiles : (string * float) list
(** The quantile summaries {!to_prometheus} emits:
    [("p50", 0.5); ("p90", 0.9); ("p99", 0.99)]. *)

val to_prometheus : t -> string
(** Prometheus text exposition format: [# HELP] / [# TYPE] per metric
    name, label values escaped (backslash, double quote, newline),
    histograms expanded into [_bucket{le=...}] / [_sum] / [_count]
    series.  Non-empty histograms additionally export
    {!summary_quantiles} as derived gauges ([<name>_p50], [<name>_p90],
    [<name>_p99]) after the primary series. *)

val output : out_channel -> t -> unit
(** Write {!to_prometheus} to the channel. *)
