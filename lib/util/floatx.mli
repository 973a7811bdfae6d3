(** Small floating-point helpers shared across the modeling code. *)

exception Non_finite of string
(** Raised by {!finite_pos}; the payload names the offending
    quantity.  Contained (and counted as [nonfinite]) by the design-space
    sweep unless it runs in strict mode. *)

val finite_pos : what:string -> float -> float
(** Identity on finite non-negative floats; raises {!Non_finite} naming
    [what] on NaN, ±∞ or a negative value (delays, energies, areas and
    powers are physical and must be ≥ 0).  Used at the circuit/array
    boundary so degenerate math is caught where it happens instead of
    poisoning downstream comparisons. *)

val clog2 : int -> int
(** [clog2 n] is the ceiling of log2 of [n]; [clog2 1 = 0]. [n] must be
    positive. *)

val is_pow2 : int -> bool
val pow2_ge : int -> int
(** Smallest power of two greater than or equal to a positive [n]. *)

val clamp : lo:float -> hi:float -> float -> float

val rel_err : actual:float -> model:float -> float
(** [(model - actual) / actual]; the sign convention used by the paper's
    validation tables (negative = model underestimates). *)

val mean : float list -> float
