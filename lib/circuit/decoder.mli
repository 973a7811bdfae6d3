(** Row/column decoders sized with the method of logical effort
    (after Amrutur & Horowitz, as in CACTI).

    Structure: 2-bit predecode NAND blocks drive predecode lines spanning the
    decoder strip; a final NAND per row combines the predecode lines and
    feeds a pitch-matched wordline driver chain, which drives the (possibly
    VPP-boosted) wordline across the subarray.  The same block describes
    column-select and mux-select decoding with the select line as the
    "wordline". *)

type t = {
  stage : Stage.t;
      (** total: delay to the far end of the selected line; energy per
          access; leakage of the whole decoder; layout area *)
  t_predecode : float;  (** s, through predecode *)
  t_gate_drive : float;  (** s, final NAND + driver chain *)
  t_line : float;  (** s, select-line RC flight *)
  n_stages : int;  (** pipeline-relevant logic depth *)
}

type predecode
(** The half of a decoder that depends on the select-line count and the
    strip length only: predecode blocks, predecode lines and the final
    NAND per line. *)

type line_driver
(** The half of a decoder that depends on the selected line's load only:
    the pitch-matched driver chain and the line's RC flight. *)

val predecode :
  periph:Cacti_tech.Device.t ->
  area:Area_model.t ->
  feature:float ->
  wire:Cacti_tech.Wire.t ->
  n_select:int ->
  strip_length:float ->
  ?input_ramp:float ->
  unit ->
  predecode
(** The predecode half for [n_select] lines whose predecode wires run
    [strip_length] meters. *)

val line_driver :
  periph:Cacti_tech.Device.t ->
  area:Area_model.t ->
  feature:float ->
  c_line:float ->
  r_line:float ->
  ?v_line_swing:float ->
  unit ->
  line_driver
(** The line-driver half for a select line of [c_line]/[r_line] swinging
    to [v_line_swing] (default the peripheral VDD). *)

val combine : predecode -> line_driver -> t
(** The whole decoder from its two halves: a few additions in the
    association order of the one-piece design, so [combine (predecode ...)
    (line_driver ...)] is bit-identical to designing the decoder whole.
    A solver that memoizes the halves separately (see
    {!Cacti_array.Bank}) designs each distinct half once. *)

val decoder :
  periph:Cacti_tech.Device.t ->
  area:Area_model.t ->
  feature:float ->
  wire:Cacti_tech.Wire.t ->
  n_select:int ->
  strip_length:float ->
  c_line:float ->
  r_line:float ->
  ?v_line_swing:float ->
  ?input_ramp:float ->
  unit ->
  t
(** [combine (predecode ...) (line_driver ...)]: [n_select] lines, one
    active per access; predecode lines run [strip_length] meters; the
    selected line presents [c_line]/[r_line] and swings to
    [v_line_swing] (default the peripheral VDD — pass the cell's VPP for
    DRAM wordlines). *)
