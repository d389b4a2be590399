(** A distributed (R*-style) relational optimizer.

    The paper's related work reviews R* (its refs [4, 14, 16]), the
    distributed descendant of System R; this rule set shows that Prairie's
    uniform property treatment covers it with no new machinery: the {e site}
    a stream lives at is just another descriptor property, and exactly like
    [tuple_order] it is classified as {b physical} automatically — because
    the SHIP enforcer-operator's Null rule propagates it to a
    re-descriptored input.

    Operators: RET, JOIN and the enforcer-operator SHIP.  Algorithms:
    File_scan (runs at the stored file's home site), Hash_join (three
    I-rules: at the required site, or at the left or the right input's
    site — both inputs must be co-located, which the engine establishes by
    shipping), Ship (the enforcer: network transfer of the stream's pages)
    and Null.

    The rules are written once, in [rules/distributed.prairie]: the library
    embeds that file at build time and parses it when it is initialized.
    Its T-rules are join commutativity and associativity plus the
    SHIP-introduction rules. *)

val ruleset : Prairie_catalog.Catalog.t -> Prairie.Ruleset.t
(** The elaborated [rules/distributed.prairie], with the helper functions
    bound to [catalog]'s statistics: 5 T-rules and 6 I-rules. *)

val ret :
  ?pred:Prairie_value.Predicate.t ->
  sites:(string * string) list ->
  Prairie_catalog.Catalog.t ->
  string ->
  Prairie.Expr.t
(** A retrieval annotated with the file's home site. *)

val join :
  Prairie_catalog.Catalog.t ->
  pred:Prairie_value.Predicate.t ->
  Prairie.Expr.t ->
  Prairie.Expr.t ->
  Prairie.Expr.t
(** Plain {!Init.join}: join execution sites are an optimization decision,
    not a query annotation. *)

val require_site : string -> Prairie.Descriptor.t
(** A required-property descriptor demanding the result at the given site
    (e.g. the site of the client). *)
