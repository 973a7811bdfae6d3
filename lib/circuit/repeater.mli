(** Repeated-wire design.

    Long intra-bank and chip-level wires are driven through periodically
    inserted inverter repeaters.  The design space (repeater size × repeater
    spacing) is scanned for the minimum-delay point; the
    [max_repeater_delay] constraint of Section 2.4 then allows picking a
    lower-energy solution whose delay is within a user-given fraction of
    that optimum — trading limited delay for energy, exactly as in
    CACTI-D. *)

type t = {
  wire : Cacti_tech.Wire.t;
  size : float;  (** repeater NMOS width, m *)
  spacing : float;  (** distance between repeaters, m *)
  delay_per_m : float;  (** s/m *)
  energy_per_m : float;  (** J/m per full transition of the wire *)
  leakage_per_m : float;  (** W/m *)
  area_per_m : float;  (** m²/m of repeater silicon *)
}

val design :
  device:Cacti_tech.Device.t ->
  area:Area_model.t ->
  feature:float ->
  ?max_delay_penalty:float ->
  wire:Cacti_tech.Wire.t ->
  unit ->
  t
(** [max_delay_penalty] is the allowed fractional delay increase over the
    best-delay repeatered solution (0 = fastest; 0.3 = up to 30% slower for
    energy savings).  Default 0.  Repeaters are never closer than 20 µm. *)

val drive : t -> length:float -> Stage.t
(** Metrics of sending one transition down [length] meters of this design:
    every per-meter figure scaled by [length]. *)
