(** Analytical gate-area model with transistor folding.

    Gate areas are sensitive to transistor sizing: when a transistor is wider
    than the height available to it (e.g. a wordline driver pitch-matched to
    a cell height, or a sense amplifier pitch-matched to a bitline pair), it
    is folded into multiple legs and the area grows in the length direction.
    This captures the context-sensitive pitch-matching constraints that make
    SRAM and DRAM peripheral strips differ. *)

type t = {
  feature_size : float;  (** m *)
  l_gate : float;  (** drawn gate length of the device class, m *)
  contacted_pitch : float;  (** gate-to-gate contacted pitch, m *)
  wiring_factor : float;  (** multiplier for intra-gate routing overhead *)
}

val create : feature_size:float -> l_gate:float -> t
(** Contacted pitch defaults to [l_gate + 3.5 F]; wiring factor to 1.6. *)

val gate_area : t -> ?max_height:float -> float list -> float
(** [gate_area t widths] is the area of a static gate given all its
    transistor widths, including the wiring factor.  Each transistor is
    folded into legs no taller than [max_height] (default ~32 F, a
    standard-cell-like row) and takes legs × contacted pitch × leg height. *)
