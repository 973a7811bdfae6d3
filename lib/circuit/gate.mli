(** Electrical models of the basic static gates.

    Widths are NMOS widths in meters; the PMOS is [beta] times wider.  All
    gates expose input capacitance, worst-case drive resistance, self
    (drain) capacitance, leakage, and layout area, which is everything the
    delay/energy composition needs. *)

type t = {
  device : Cacti_tech.Device.t;
  c_in : float;  (** per input, F *)
  r_drive : float;  (** worst-case pull resistance, Ω *)
  c_self : float;  (** output self-loading, F *)
  leakage : float;  (** average standby leakage, W *)
  area : float;  (** m² *)
  v_th_fraction : float;  (** switching threshold / VDD, for Horowitz *)
}

val beta_default : float
(** Default P/N width ratio (2.0). *)

val inverter :
  ?beta:float -> area:Area_model.t -> Cacti_tech.Device.t -> w_n:float -> t

val nand :
  ?beta:float ->
  area:Area_model.t ->
  fan_in:int ->
  Cacti_tech.Device.t ->
  w_n:float ->
  t
(** Series NMOS stack: drive resistance scales with fan-in; NMOS widths are
    up-sized by the fan-in to compensate area-wise. *)

val tf : t -> c_load:float -> float
(** Intrinsic time constant [0.69 · R · (C_self + C_load)] for Horowitz. *)

val switching_energy : t -> c_load:float -> float
(** [ (C_self + C_load) · VDD² ] — one full charge/discharge cycle. *)
