(** Deterministic pseudo-random number generation (splitmix64).

    The architectural simulator and the synthetic workload generators must be
    reproducible run-to-run and independent of OCaml's stdlib [Random] state,
    so they use this small self-contained generator. *)

type t

val create : int64 -> t
(** [create seed] makes a fresh generator. Equal seeds give equal streams. *)

val bits53 : t -> int
(** The top 53 bits of one draw, as a non-negative int — exactly the bits
    behind one [float t 1.0] result ([float t 1.0 = float_of_int (bits53 t)
    /. 2^53], drawing once from the same stream).  Lets integer-threshold
    comparisons replace float ones without perturbing the sequence. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val geometric_log1mp : t -> log1mp:float -> int
(** [geometric_log1mp t ~log1mp:(log (1. -. p))] is the number of failures
    before the first success of a Bernoulli([p]) trial, [p] in (0, 1); mean
    [(1-p)/p].  It inverts the CDF at one [float t 1.0] draw (clamped to
    [1e-300]): [floor (log u /. log1mp)].  The caller hoists the
    loop-invariant logarithm, which halves the simulator's libm traffic. *)
