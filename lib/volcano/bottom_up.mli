(** Bottom-up (System R-style) search over the same memo and rules.

    The paper notes (§2.2) that Prairie could equally drive a bottom-up
    optimizer "given an appropriate search engine"; the earliest optimizers
    (System R and R-star) worked that way.  This module is that engine:

    1. {b saturate}: apply transformation rules to a fixpoint over every
       group (eager, not demand-driven);
    2. {b interesting orders}: propagate the physical-property requirements
       that could ever be requested of each group — the root requirement
       plus every input requirement of every applicable implementation
       rule, plus the enforcers' relaxations (Selinger's "interesting
       orders", generalized to property vectors);
    3. {b dynamic programming}: process groups in dependency order,
       computing the best plan for each (group, requirement) pair from the
       already-final plans of the input groups.

    It is exhaustive where the top-down engine is demand-driven and
    branch-and-bound, but both must find plans of equal cost — which the
    test suite asserts. *)

type result = {
  plan : Plan.t option;
  groups_explored : int;
  requirements_considered : int;
      (** total (group, requirement) pairs the DP table held *)
  plans_costed : int;
}

val optimize : ?required:Prairie.Descriptor.t -> Rule.ruleset -> Prairie.Expr.t -> result
(** Run the full bottom-up optimization from a fresh memo. *)
