(** The cost model shared by every optimizer in this repository.

    Costs are abstract I/O-page units with a CPU surcharge per tuple
    produced (System R style).  Both the Prairie rule actions (via the
    helper functions of {!Helpers}) and the hand-coded Volcano rule set call
    these functions, so the two optimizers of the §4 experiments assign
    byte-identical costs to identical plans — any divergence between them in
    the equivalence tests is a real bug, not cost-model noise. *)

val page_size : int
(** 4096 bytes. *)

val cpu_per_tuple : float
(** CPU surcharge, in page units, per tuple handled. *)

val pages : card:int -> tuple_size:int -> float
(** Pages occupied by [card] tuples of [tuple_size] bytes; at least 1. *)

val file_scan : card:int -> tuple_size:int -> float
(** Scan the whole stored file. *)

val index_scan : card:int -> tuple_size:int -> selectivity:float -> float
(** Index probe plus one page fetch per matching tuple. *)

val nested_loops : outer_cost:float -> outer_card:int -> inner_cost:float -> float
(** The paper's Fig. 6 formula: scan the outer once, the inner once per
    outer tuple. *)

val merge_join :
  left_cost:float -> right_cost:float -> left_card:int -> right_card:int -> float

val hash_join :
  left_cost:float -> right_cost:float -> left_card:int -> right_card:int -> float

val pointer_join :
  outer_cost:float -> inner_cost:float -> outer_card:int -> float
(** Follow one pointer per outer tuple into the (resident) inner class.
    Cost-monotone in both inputs, as branch-and-bound requires. *)

val merge_sort : input_cost:float -> card:int -> float
(** The paper's Fig. 5 formula: input cost plus [n log n]. *)

val filter : input_cost:float -> input_card:int -> float

val project : input_cost:float -> input_card:int -> float

val mat_ordered : input_cost:float -> card:int -> float
(** Per-tuple pointer dereference, preserving input order. *)

val mat_unordered : input_cost:float -> card:int -> float
(** Batched dereference (pointers sorted internally): cheaper per tuple but
    the output order is destroyed.  The cheaper of the two MAT
    implementations when no order is required — the per-rule property
    mapping show-case. *)

val unnest : input_cost:float -> output_card:int -> float

val hash_agg : input_cost:float -> input_card:int -> float

val sort_agg : input_cost:float -> input_card:int -> float
(** Requires sorted input (the optimizer guarantees it); cheaper per tuple
    than {!hash_agg} — the classic enforcer-driven trade-off. *)

val network_page_factor : float

val ship : input_cost:float -> card:int -> tuple_size:int -> float
(** Move a stream between sites: network transfer of its pages (the R*-style
    distributed algebra's enforcer cost). *)
