(** Commodity DRAM parts, expressed as CACTI-D main-memory chip
    specifications plus their interface data rates: the 78 nm Micron
    DDR3-1066 chip of the paper's Table 2 validation. *)

type part = {
  pname : string;
  tech_nm : float;
  capacity_bits : int;
  io_bits : int;
  n_banks : int;
  page_bits : int;
  prefetch : int;
  burst : int;
  interface : Cacti.Mainmem.interface;
  data_rate_mts : int;  (** mega-transfers per second per pin *)
}

val ddr3_1066_1gb_x8 : part
(** The Table 2 validation part. *)

val solve : ?params:Cacti.Opt_params.t -> part -> Cacti.Mainmem.t
(** The CACTI-D solution of the part's chip specification. *)

val peak_bandwidth : part -> float
(** Pin bandwidth of one chip, bytes/s. *)
