(** Method of logical effort (Amrutur–Horowitz style) for sizing
    multi-stage drive paths.

    CACTI-D follows the Amrutur/Horowitz decoder methodology: a path's total
    effort [F = G·B·H] determines the optimal stage count [N ≈ log₄ F] and
    the per-stage effort [f = F^(1/N)]. *)

val n_stages : path_effort:float -> int
(** Optimal number of stages, at least 1. *)

val stage_effort : path_effort:float -> n:int -> float
(** [F^(1/n)]. *)
