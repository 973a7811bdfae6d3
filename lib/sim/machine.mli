(** Machine configuration for the architectural simulator: the timing and
    energy parameters of every memory-hierarchy component, normally filled
    in from CACTI-D solutions by {!Study} but also hand-codable in tests. *)

type cache_params = {
  lines : int;  (** capacity in 64 B lines (per instance/bank) *)
  assoc : int;
  latency : int;  (** cycles from request to data at this level (beyond the
                      previous level's detection) *)
  cycle : int;  (** bank busy cycles per access (interleave cycle) *)
  e_read : float;  (** J per line read *)
  e_write : float;
  p_leak : float;  (** W, per instance *)
  p_refresh : float;  (** W, per instance *)
}

type l3_params = {
  bank : cache_params;  (** one of the [n_banks] banks *)
  n_banks : int;
  xbar_latency : int;  (** cycles through the L2–L3 crossbar, one way *)
  e_xbar : float;  (** J per line transfer through the crossbar *)
  p_xbar_leak : float;
}

type mem_params = {
  timing : Dram_sim.timing;
  policy : Dram_sim.policy;
  powerdown : Dram_sim.powerdown option;
      (** rank power-down after channel idleness (the paper's Section-6
          suggestion); [None] disables *)
  n_channels : int;
  n_banks : int;
  n_chips_per_rank : int;
  e_activate : float;  (** J per rank ACTIVATE+PRECHARGE (all chips) *)
  e_read : float;  (** J per rank line read (all chips, excl. activate) *)
  e_write : float;
  p_standby : float;  (** W per rank *)
  p_refresh : float;  (** W per rank *)
  bus_mw_per_gbps : float;  (** paper: 2 mW/Gb/s *)
  line_transfer_gbits : float;  (** bits per line transfer / 1e9 *)
}

type t = {
  name : string;
  n_cores : int;
  threads_per_core : int;
  clock_hz : float;
  l1 : cache_params;  (** per-core L1D; L1I assumed identical *)
  l2 : cache_params;  (** per-core private unified L2 *)
  l3 : l3_params option;
  mem : mem_params;
  core_power : float;  (** W, whole bottom die (paper: 22.3 W) *)
  instr_per_fetch_line : int;  (** instructions per L1I line fetch (energy) *)
}

val n_threads : t -> int
