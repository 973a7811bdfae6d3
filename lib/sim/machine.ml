type cache_params = {
  lines : int;
  assoc : int;
  latency : int;
  cycle : int;
  e_read : float;
  e_write : float;
  p_leak : float;
  p_refresh : float;
}

type l3_params = {
  bank : cache_params;
  n_banks : int;
  xbar_latency : int;
  e_xbar : float;
  p_xbar_leak : float;
}

type mem_params = {
  timing : Dram_sim.timing;
  policy : Dram_sim.policy;
  powerdown : Dram_sim.powerdown option;
  n_channels : int;
  n_banks : int;
  n_chips_per_rank : int;
  e_activate : float;
  e_read : float;
  e_write : float;
  p_standby : float;
  p_refresh : float;
  bus_mw_per_gbps : float;
  line_transfer_gbits : float;
}

type t = {
  name : string;
  n_cores : int;
  threads_per_core : int;
  clock_hz : float;
  l1 : cache_params;
  l2 : cache_params;
  l3 : l3_params option;
  mem : mem_params;
  core_power : float;
  instr_per_fetch_line : int;
}

let n_threads t = t.n_cores * t.threads_per_core
