(** Per-node technology data tables.

    CACTI-D ships data for the four ITRS nodes 90/65/45/32 nm (covering ITRS
    years 2004–2013).  Device data follows the ITRS trends described in the
    paper: HP CV/I improves 17%/year and is leaky; LSTP holds an
    almost-constant ~10 pA/µm leakage with gate lengths lagging HP by four
    years; LOP lies in between with a two-year lag and the lowest VDD.  Wire
    data follows Ron Ho's projections.  Cell data follows Table 1 and the
    LP-DRAM measurements of Wang et al. / Barth et al. and COMM-DRAM trench
    data of Mueller et al./Amon et al.

    Values are engineering projections calibrated so that derived array
    metrics land near the paper's published validation points; they are not a
    copy of any proprietary table. *)

type t = {
  feature_size : float;  (** m *)
  year : int;  (** ITRS year of the node *)
  devices : (Device.kind * Device.t) list;
  wires_conservative : (Wire.kind * Wire.t) list;
  wires_aggressive : (Wire.kind * Wire.t) list;
  cells : (Cell.ram_kind * Cell.t) list;
}

val all : t list
(** In decreasing feature-size order: 90, 65, 45, 32. *)

val device : t -> Device.kind -> Device.t
(** Raises [Not_found] if the node lacks the device kind (never for the
    built-in nodes). *)

val wire : t -> Wire.projection -> Wire.kind -> Wire.t
val cell : t -> Cell.ram_kind -> Cell.t

val interpolate : t -> t -> float -> t
(** [interpolate a b t] mixes all tables field-wise. *)
