(** SI unit helpers.

    Every physical quantity in this code base is stored in base SI units:
    seconds, meters, farads, ohms, joules, watts, volts, amperes.  These
    helpers convert to and from the engineering units the paper's tables
    print (ns, nJ, mW, mm², µm²) and format quantities for human-readable
    output. *)

(** {1 Construction: engineering unit -> SI} *)

val ns : float -> float
(** [ns x] is [x] nanoseconds in seconds. *)

(** {1 Readback: SI -> engineering unit} *)

val to_ns : float -> float
val to_nj : float -> float
val to_mw : float -> float
val to_mm2 : float -> float
val to_um2 : float -> float

(** {1 Formatting} *)

val pp_time : Format.formatter -> float -> unit
(** Prints a duration with an auto-selected unit (ps/ns/µs/ms/s). *)

val pp_area : Format.formatter -> float -> unit
(** Prints an area in µm² or mm². *)

val pp_energy : Format.formatter -> float -> unit
(** Prints an energy in fJ/pJ/nJ/µJ. *)

val pp_power : Format.formatter -> float -> unit
(** Prints a power in µW/mW/W. *)

val pp_bytes : Format.formatter -> int -> unit
(** Prints a byte count as B/KB/MB/GB (binary). *)
