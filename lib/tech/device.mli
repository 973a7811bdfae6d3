(** MOS device models.

    CACTI-D includes the three ITRS device classes — High Performance (HP),
    Low Standby Power (LSTP), Low Operating Power (LOP) — plus user-added
    device types: a long-channel variation of HP (used for SRAM cells and
    SRAM/LP-DRAM peripheral circuitry, trading speed for ~10x lower leakage,
    like the 65 nm Xeon L3) and the DRAM cell access transistors of LP-DRAM
    (intermediate-oxide) and COMM-DRAM (thick conventional oxide).

    All per-width quantities are per meter of gate width (SI): F/m, A/m,
    Ω·m. *)

type kind =
  | Hp  (** ITRS high performance *)
  | Lstp  (** ITRS low standby power *)
  | Lop  (** ITRS low operating power *)
  | Hp_long_channel  (** HP with relaxed gate length for low leakage *)
  | Dram_access_lp  (** LP-DRAM 1T1C cell access transistor *)
  | Dram_access_comm  (** COMM-DRAM 1T1C cell access transistor *)

type t = {
  kind : kind;
  vdd : float;  (** nominal supply, V *)
  v_th : float;  (** threshold voltage, V *)
  l_phy : float;  (** physical gate length, m *)
  c_gate : float;  (** gate capacitance incl. fringe/overlap, F/m width *)
  c_drain : float;  (** drain junction + overlap capacitance, F/m width *)
  i_on_n : float;  (** NMOS saturation drive current, A/m *)
  i_on_p : float;  (** PMOS saturation drive current, A/m *)
  i_off_n : float;  (** NMOS subthreshold leakage at T_op, A/m *)
  i_off_p : float;  (** PMOS subthreshold leakage at T_op, A/m *)
  i_gate : float;  (** gate leakage, A/m *)
  r_sw_factor : float;
      (** switching-resistance factor [k] in [R = k * vdd / i_on];
          absorbs velocity-saturation and input-slope effects *)
  gm_per_ion : float;
      (** transconductance per unit on-current, S/A; used for latch-type
          sense-amplifier delay [tau = C / gm] *)
  long_channel_leakage_reduction : float;
      (** leakage multiplier available by moving this device to its
          long-channel variant (1.0 when not applicable) *)
}

(** {1 Derived electrical quantities} *)

val r_sw_n : t -> float
(** Switching (effective) resistance of an NMOS, Ω·m: multiply by
    1/width. *)

val r_sw_p : t -> float

val leakage_power_inverter : t -> w_n:float -> w_p:float -> float
(** Average subthreshold leakage power of an inverter, W (input equally
    likely 0/1, so half the time the N stack leaks, half the time the P). *)

val gm_n : t -> float
(** NMOS transconductance per width, S/m. *)

val interpolate : t -> t -> float -> t
(** [interpolate a b t] mixes two nodes' parameters for the same [kind];
    [t]=0 gives [a], [t]=1 gives [b].  Voltage/geometry fields interpolate
    linearly, currents geometrically. *)

val scale_long_channel : t -> t
(** Derives the long-channel variant: ~30% longer channel, ~10% lower drive,
    leakage scaled by [long_channel_leakage_reduction]. *)
