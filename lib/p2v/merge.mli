(** Rule merging and compaction (paper §3.3).

    Translating Prairie to Volcano deletes enforcer-operators.  A T-rule
    whose right-hand side wraps stream variables in enforcer-operators, like

    {v JOIN(?1,?2):D3 ==> JOPR(SORT(?1):D4, SORT(?2):D5):D6 v}

    loses its SORT nodes: the enforcer descriptors [D4]/[D5] become
    {e re-descriptored requirements} on the streams,
    [JOPR(?1:D4, ?2:D5):D6].  If the stripped rule is a pure renaming
    [JOIN ==> JOPR] of an operator introduced only by this rule, the rule
    is composed with every I-rule of the introduced operator, yielding a
    single merged I-rule per algorithm:

    {v JOIN(?1,?2):D3 ==> Merge_join(?1:D4, ?2:D5):D6' v}

    and both the renaming T-rule and the introduced operator disappear.
    A renaming that cannot be composed — another rule also introduces its
    operator, or one of the operator's I-rules does not compose (P103,
    P104) — stays a trans rule, and its stream requirements move onto the
    introduced operator's I-rules instead (P106 when an I-rule already
    re-descriptors its inputs).
    The paper's arithmetic follows: #T-rules = #trans_rules + one
    enforcer-introduction T-rule per operator, and #I-rules = #impl_rules +
    one Null rule per enforcer-operator + one rule per enforcer-algorithm. *)

type result = {
  source : Prairie.Ruleset.t;
  enforcer_infos : Enforcers.info list;
  trans_trules : Prairie.Trule.t list;
      (** surviving T-rules → Volcano trans_rules *)
  impl_irules : Prairie.Irule.t list;
      (** surviving and composed I-rules → Volcano impl_rules *)
  dropped_operators : string list;
      (** enforcer-operators and composed-away introduced operators *)
  composed : (string * string) list;
      (** (T-rule, I-rule) pairs that were merged; a renaming that was kept
          contributes none *)
  warnings : Prairie.Diagnostic.t list;
      (** translation findings (codes P101–P107), deduplicated and in the
          stable {!Prairie.Diagnostic.compare} order *)
}

val merge : Prairie.Ruleset.t -> result
(** Run enforcer deletion and rename-rule composition. *)

val trans_rule_count : result -> int
val impl_rule_count : result -> int
val enforcer_count : result -> int
