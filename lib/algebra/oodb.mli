(** The Texas Instruments Open OODB query optimizer rule set (paper §4).

    The algebra of §4.3: five relational operators — SELECT, PROJECT, JOIN,
    RET, UNNEST — and the object-oriented MAT (materialize, a
    pointer-chasing operator), plus the enforcer-operator SORT.  Eight
    algorithms: File_scan, Index_scan, Hash_join, Pointer_join, Filter,
    Project_alg, Mat_deref and Unnest_scan (Mat_deref appears in two
    I-rules with different property mappings — the per-rule advantage of
    §3.2.2), plus Merge_sort and Null.

    The Prairie rule set has {b 22 T-rules and 11 I-rules}; the P2V
    pre-processor compacts it to {b 17 trans_rules, 9 impl_rules and 1
    enforcer} — the arithmetic reported in §4.2.

    The rules are written once, in [rules/open_oodb.prairie]: the library
    embeds that file at build time and parses it when it is initialized. *)

val ruleset : Prairie_catalog.Catalog.t -> Prairie.Ruleset.t
(** The elaborated [rules/open_oodb.prairie], with the helper functions
    bound to [catalog]'s statistics.  Queries over it are built with
    {!Init}. *)
