(** Staged per-spec constants for the analytical solver.

    A {!t} gathers everything in the candidate-evaluation path that depends
    only on the technology node, the cell type and the repeater delay
    penalty — device and cell parameters, the area model, local wire RC,
    the semi-global H-tree {!Repeater.design} (a spacing × sizing scan that
    dominates per-candidate cost when recomputed inline), port timing,
    control-logic inverter equivalents, and the sense-amp and mux designs
    for every degree of the partition grid, in arrays indexed by degree
    (a lookup is one bounds check and one load).  Computing it once per design-space sweep and
    threading it through {!Cacti_array.Mat} / {!Cacti_array.Bank} leaves
    only flat float math in the per-candidate inner loop.

    Every field is produced by the same pure expressions the unstaged path
    used, so staged evaluation is bit-identical to inline evaluation. *)

type t = {
  ram : Cacti_tech.Cell.ram_kind;
  is_dram : bool;
  tech : Cacti_tech.Technology.t;
  feature : float;
  cell : Cacti_tech.Cell.t;
  periph : Cacti_tech.Device.t;
  area : Area_model.t;
  wire_local : Cacti_tech.Wire.t;
  cell_w : float;  (** cell width, m *)
  cell_h : float;  (** cell height, m *)
  repeater : Repeater.t;  (** semi-global H-tree repeater design *)
  t_port : float;  (** H-tree port latency (3 FO4), s *)
  ctl_inv : Gate.t;  (** control-block inverter equivalent (10 F) *)
  wr_drv : Gate.t;  (** write-driver inverter equivalent (24 F) *)
  sense_by_deg : Sense_amp.t option array;
      (** sense-amp design, indexed by bitline-mux degree ([None] outside
          the partition grid's degrees) *)
  mux_bl_by_deg : Mux.t option array;
      (** bitline output mux, indexed by bitline-mux degree (drives the
          matching staged sense amp) *)
  mux1_by_ndsam : Mux.t option array;
      (** first-level sense-amp output mux, indexed by partition degree *)
  mux2_by_ndsam : Mux.t option array;
      (** second-level sense-amp output mux, indexed by partition degree *)
}

val make :
  tech:Cacti_tech.Technology.t ->
  ram:Cacti_tech.Cell.ram_kind ->
  max_repeater_delay_penalty:float ->
  unit ->
  t

val sense : t -> deg_bl_mux:int -> Sense_amp.t
(** The staged sense-amp design for the given (effective) bitline-mux
    degree; falls back to computing one on demand for degrees outside the
    staged table (any int, negative included).  The fallback runs the
    staged entries' expression, so both are bit-identical. *)

val mux_bl : t -> deg_bl_mux:int -> Mux.t
(** The staged bitline output mux for the given (effective) bitline-mux
    degree; on-demand fallback outside the staged table. *)

val mux1 : t -> ndsam:int -> Mux.t
(** The staged first-level output mux for the given partition degree;
    on-demand fallback outside the staged table. *)

val mux2 : t -> ndsam:int -> Mux.t
(** The staged second-level output mux for the given partition degree;
    on-demand fallback outside the staged table. *)
