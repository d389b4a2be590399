(** Structured diagnostics for static analysis of rule sets.

    Every finding — from the {!module:Prairie_lint} analyzer, the P2V
    pre-processor or elaboration — is a value with a stable code
    ([P001]…), a severity, an optional rule name and source span, a
    message and an optional fix hint.  Stable codes let tooling (CI
    gates, editors, the [prairiec lint --format json] report) key on the
    finding kind rather than on message text. *)

type severity =
  | Error  (** the rule set is broken; refuse to load it *)
  | Warning  (** probably a bug; [--max-warnings] can gate on these *)
  | Info  (** noteworthy but expected (e.g. pragma-downgraded findings) *)

type span = {
  line : int;  (** 1-based *)
  column : int;  (** 1-based *)
}

type t = {
  code : string;  (** stable code, e.g. ["P005"] *)
  severity : severity;
  rule : string option;  (** rule or declaration the finding is about *)
  span : span option;  (** source position, when known *)
  message : string;
  hint : string option;  (** optional suggestion for fixing the finding *)
  related : (string * span) list;
      (** other rules the finding involves — e.g. the subsuming rule of a
          P320 pair — each with its source position *)
}

val make :
  ?severity:severity ->
  ?rule:string ->
  ?span:span ->
  ?hint:string ->
  ?related:(string * span) list ->
  code:string ->
  string ->
  t

val error :
  ?rule:string ->
  ?span:span ->
  ?hint:string ->
  ?related:(string * span) list ->
  code:string ->
  string ->
  t

val warning :
  ?rule:string ->
  ?span:span ->
  ?hint:string ->
  ?related:(string * span) list ->
  code:string ->
  string ->
  t

val info :
  ?rule:string ->
  ?span:span ->
  ?hint:string ->
  ?related:(string * span) list ->
  code:string ->
  string ->
  t

val is_error : t -> bool
val is_warning : t -> bool
val errors : t list -> t list
val warnings : t list -> t list

val compare : t -> t -> int
(** Total order: span, then severity, code, rule, message — the stable
    report order. *)

val normalize : t list -> t list
(** Deduplicate and sort into the stable report order. *)

val summary : t list -> int * int * int
(** [(errors, warnings, infos)] counts. *)

type catalogue = (string * severity * string) list
(** A checker's code table: [(code, default severity, description)].  The
    P-code namespace is shared across checkers — P0xx are static lint
    findings, P2xx semantic verification findings — so tooling can treat
    [prairiec lint] and [prairiec verify] reports uniformly. *)

val catalogue_find : catalogue -> string -> (severity * string) option

val catalogue_codes : catalogue -> string list

val to_string : t -> string
(** ["error[P005] 12:3 (join_commute): ..."] with an optional hint line. *)

val pp : Format.formatter -> t -> unit

val to_json : t -> string
(** One JSON object; fields [code], [severity], [message] always present,
    [rule], [line]/[column], [hint], [related] when known. *)
