(** Technology lookup facade.

    A [t] fixes a feature size (interpolating between the built-in ITRS nodes
    when needed — e.g. the 78 nm Micron DDR3 validation point), a wire
    projection, and the device-class assignments of Table 1:

    - SRAM cells and SRAM/LP-DRAM peripheral+global circuitry use
      long-channel ITRS HP devices;
    - COMM-DRAM peripheral circuitry uses LSTP devices;
    - DRAM cell access transistors use their own device classes. *)

type t

val create : ?wire_projection:Wire.projection -> feature_size:float -> unit -> t
(** [create ~feature_size ()] interpolates the built-in tables at
    [feature_size] (meters).  Raises [Invalid_argument] outside the covered
    32–90 nm range. *)

val of_node : ?wire_projection:Wire.projection -> Node.t -> t

val at_nm : ?wire_projection:Wire.projection -> float -> t
(** [at_nm 32.] is shorthand for [create ~feature_size:32e-9 ()]. *)

val feature_size : t -> float
val wire_projection : t -> Wire.projection

val device : t -> Device.kind -> Device.t
val wire : t -> Wire.kind -> Wire.t
val cell : t -> Cell.ram_kind -> Cell.t

val peripheral_device : t -> Cell.ram_kind -> Device.t
(** The device class used for decoders, drivers, sense support, repeaters and
    all other non-cell circuitry of an array in the given RAM technology. *)

val fo4 : t -> Device.kind -> float
(** Fanout-of-4 inverter delay for the device class, s; a sanity metric and
    the basis of a few heuristics (pipelining limits). *)

val table1 : t -> (string * string * string * string) list
(** The rows of the paper's Table 1 — (characteristic, SRAM, LP-DRAM,
    COMM-DRAM) — as rendered from this technology instance. *)
