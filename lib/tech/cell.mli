(** Memory-cell models for the three RAM technologies of Table 1.

    SRAM uses a 6T cell (~146 F²) built from long-channel ITRS HP devices;
    LP-DRAM uses a 1T1C cell (~30 F² at 32 nm) with an intermediate-oxide
    access transistor and 20 fF storage; COMM-DRAM uses a folded 6 F² 1T1C
    cell with a thick-oxide access transistor, 30 fF storage, tungsten
    bitlines and a 64 ms refresh period.

    Bitline and wordline electricals are stored as calibrated per-attached-
    cell lumped values (the contribution each cell makes to the line's R and
    C), which is how the array model composes subarray lines of any height or
    width. *)

type ram_kind = Sram | Lp_dram | Comm_dram

val ram_kind_to_string : ram_kind -> string
val is_dram : ram_kind -> bool

type t = {
  ram : ram_kind;
  area_f2 : float;  (** cell area in F² *)
  aspect_wh : float;  (** cell width / cell height *)
  access_width_f : float;  (** access transistor width, in F *)
  vdd_cell : float;  (** storage-array supply, V *)
  storage_cap : float;  (** DRAM storage capacitance, F (0 for SRAM) *)
  vpp : float;  (** boosted wordline voltage, V (= vdd for SRAM) *)
  retention_time : float;  (** refresh period, s (infinity for SRAM) *)
  i_cell_on : float;  (** cell read/restore drive current, A *)
  i_cell_leak : float;  (** per-cell leakage: SRAM supply leak / DRAM
                            storage-node leak, A *)
  c_bl_per_cell : float;  (** bitline C contributed per attached cell, F *)
  r_bl_per_cell : float;  (** bitline R contributed per attached cell, Ω *)
  c_wl_per_cell : float;  (** wordline C per attached cell (gate + wire), F *)
  r_wl_per_cell : float;  (** wordline R per attached cell, Ω *)
}

val width : t -> feature_size:float -> float
(** Physical cell width in meters. *)

val height : t -> feature_size:float -> float
val area : t -> feature_size:float -> float

val sense_signal : t -> c_bitline:float -> float
(** For DRAM: charge-redistribution signal available to the sense amplifier
    when the cell dumps onto a bitline of capacitance [c_bitline]:
    [(Vdd/2) · Cs / (Cs + Cbl)].  For SRAM: the fixed differential sensing
    swing the bitline must develop. *)

val min_sense_signal : float
(** Sense-amplifier offset + margin the signal must exceed, V; bounds DRAM
    rows per bitline. *)

val restore_time : t -> float
(** DRAM cell writeback/restore time after destructive readout:
    the storage capacitor recharged through the access device,
    [≈ 1.8 · Cs · Vdd_cell / I_cell_on] (the tail of the exponential settle
    dominates tRAS in commodity parts). 0 for SRAM. *)

val interpolate : t -> t -> float -> t
(** Field-wise mix of two nodes' cells of the same [ram] kind. *)
