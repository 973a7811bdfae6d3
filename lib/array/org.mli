(** Array-partitioning parameters — the design space CACTI-D's optimizer
    walks.

    A bank is divided into [ndwl × ndbl] subarrays (grouped four to a mat);
    [nspd] stretches how many logical rows share a physical wordline; the
    column path is reduced by a bitline mux of degree [deg_bl_mux] and two
    levels of sense-amp output muxing. *)

type t = {
  ndwl : int;  (** wordline divisions (subarray columns across the bank) *)
  ndbl : int;  (** bitline divisions (subarray rows down the bank) *)
  nspd : float;  (** row aspect scaling; power of two in [1/8, 8] *)
  deg_bl_mux : int;  (** bitline pairs sharing one sense amp *)
  ndsam_lev1 : int;  (** sense-amp output mux, first level *)
  ndsam_lev2 : int;  (** sense-amp output mux, second level *)
}

val to_string : t -> string

val mats_x : t -> int
(** Mats across: [max 1 (ndwl/2)]. *)

val mats_y : t -> int
val n_mats : t -> int

val candidates :
  ?max_ndwl:int -> ?max_ndbl:int -> dram:bool -> unit -> t list
(** The enumeration grid, in deterministic nested order (ndwl, ndbl, nspd,
    deg_bl_mux, ndsam_lev1, ndsam_lev2 — outermost first).  For DRAM
    arrays [deg_bl_mux] is fixed at 1 — every folded bitline pair owns a
    sense amplifier, because an ACTIVATE must latch the whole row for
    writeback.  The default 64×64 grids are cached and shared (the list is
    immutable). *)

(** {1 Grid axes}

    The individual dimensions of {!candidates}, exposed so sweeps can walk
    the grid hierarchically (hoisting checks that depend only on outer
    dimensions) while preserving exactly the {!candidates} order. *)

val pow2s : int -> int list
(** [1; 2; 4; ...] up to and including the bound (if itself a power). *)

val nspds : float list
val bl_muxes : dram:bool -> int list
val ndsams : int list
