(** Logical-effort-sized buffer (inverter) chains.

    The workhorse for every "drive this capacitance" problem: predecode-line
    drivers, wordline drivers, H-tree drivers, output drivers.  The chain is
    sized from a minimum-width first stage up to the load at roughly the
    optimal stage effort, the delay of each stage computed with the Horowitz
    approximation and ramps propagated stage to stage. *)

type t = {
  stage : Stage.t;
  output_ramp : float;  (** s, ramp presented to whatever is driven *)
  n_stages : int;
  w_n_last : float;  (** NMOS width of the final stage, m *)
}

val chain :
  device:Cacti_tech.Device.t ->
  area:Area_model.t ->
  feature:float ->
  ?beta:float ->
  ?input_ramp:float ->
  ?w_n_first:float ->
  ?r_wire:float ->
  ?c_wire:float ->
  ?v_swing:float ->
  c_load:float ->
  unit ->
  t
(** Drives [c_wire + c_load] through an optional series wire resistance.
    [v_swing] overrides the voltage swing used for the {e load} energy (the
    gates themselves always swing VDD); used for boosted wordlines (VPP) and
    low-swing lines.  Energy accounts one full charge/discharge cycle of
    every switched node. *)
