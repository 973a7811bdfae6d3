(** Horowitz gate-delay approximation.

    The classic expression for the delay of a static gate driven by a ramp
    input, used throughout CACTI for every logic stage.  Stages propagate
    their output ramp time so that slow inputs correctly penalize the next
    stage. *)

val delay :
  input_ramp:float -> tf:float -> v_th_fraction:float -> float
(** [delay ~input_ramp ~tf ~v_th_fraction] where [tf] is the stage's
    intrinsic RC time constant and [v_th_fraction] is the switching
    threshold of the driven gate as a fraction of VDD.
    [tf · sqrt(ln²(vs) + 2·a·b·(1-vs))] with [a = ramp/tf], [b = 0.5]. *)

val output_ramp : tf:float -> float
(** Ramp time presented to the next stage, estimated as the full-swing time
    of this stage's output: [tf / (1 - v_th_fraction)] with the canonical
    0.5 threshold — i.e. [2·tf]. *)
