type power = {
  l1_leak : float;
  l1_dyn : float;
  l2_leak : float;
  l2_dyn : float;
  xbar_leak : float;
  xbar_dyn : float;
  l3_leak : float;
  l3_dyn : float;
  l3_refresh : float;
  mem_chip_dyn : float;
  mem_standby : float;
  mem_refresh : float;
  mem_bus : float;
}

let memory_hierarchy p =
  p.l1_leak +. p.l1_dyn +. p.l2_leak +. p.l2_dyn +. p.xbar_leak +. p.xbar_dyn
  +. p.l3_leak +. p.l3_dyn +. p.l3_refresh +. p.mem_chip_dyn +. p.mem_standby
  +. p.mem_refresh +. p.mem_bus

let compute (cfg : Machine.t) (app : Workload.app) (st : Stats.t) =
  let open Machine in
  let t =
    float_of_int (Int.max 1 st.Stats.exec_cycles) /. cfg.clock_hz
  in
  let fi = float_of_int in
  let wr = app.Workload.write_ratio in
  let mix e_rd e_wr = ((1. -. wr) *. e_rd) +. (wr *. e_wr) in
  let cores = fi cfg.n_cores in
  (* L1: data accesses + instruction-fetch lines (both L1I and L1D are
     present per core; leakage counts both). *)
  let l1_dyn =
    ((fi st.Stats.l1_accesses *. mix cfg.l1.e_read cfg.l1.e_write)
    +. (fi st.Stats.ifetch_lines *. cfg.l1.e_read))
    /. t
  in
  let l1_leak = 2. *. cores *. cfg.l1.p_leak in
  let l2_dyn =
    ((fi st.Stats.l2_accesses *. mix cfg.l2.e_read cfg.l2.e_write)
    +. (fi st.Stats.l1_writebacks *. cfg.l2.e_write))
    /. t
  in
  let l2_leak = cores *. cfg.l2.p_leak in
  let xbar_leak, xbar_dyn, l3_leak, l3_dyn, l3_refresh =
    match cfg.l3 with
    | None -> (0., 0., 0., 0., 0.)
    | Some p ->
        let banks = fi p.n_banks in
        let transfers =
          fi
            ((2 * st.Stats.l3_accesses) + st.Stats.l2_writebacks
           + (2 * st.Stats.c2c_transfers))
        in
        let l3_fills = fi (st.Stats.l3_accesses - st.Stats.l3_hits) in
        let l3_dyn =
          ((fi st.Stats.l3_accesses *. p.bank.e_read)
          +. (l3_fills *. p.bank.e_write)
          +. (fi st.Stats.l2_writebacks *. p.bank.e_write))
          /. t
        in
        ( p.p_xbar_leak,
          transfers *. p.e_xbar /. t,
          banks *. p.bank.p_leak,
          l3_dyn,
          banks *. p.bank.p_refresh )
  in
  let dram =
    match st.Stats.dram with
    | Some d -> d
    | None ->
        {
          Dram_sim.activates = 0;
          reads = 0;
          writes = 0;
          precharges = 0;
          row_hits = 0;
          busy_cycles = 0;
          powerdown_cycles = 0;
          wakeups = 0;
        }
  in
  let channels = fi cfg.mem.n_channels in
  let mem_chip_dyn =
    ((fi dram.Dram_sim.activates *. cfg.mem.e_activate)
    +. (fi dram.Dram_sim.reads *. cfg.mem.e_read)
    +. (fi dram.Dram_sim.writes *. cfg.mem.e_write))
    /. t
  in
  (* Power-down (CKE low) cuts most of the rank's standby draw while the
     interface clock can stop; 70% saving is the DDR3/4 fast-exit figure. *)
  let pd_fraction =
    float_of_int dram.Dram_sim.powerdown_cycles
    /. float_of_int (Int.max 1 (cfg.mem.n_channels * st.Stats.exec_cycles))
  in
  let mem_standby =
    channels *. cfg.mem.p_standby *. (1. -. (0.7 *. pd_fraction))
  in
  let mem_refresh = channels *. cfg.mem.p_refresh in
  (* Bus power at the paper's 2 mW/Gb/s, from realized traffic (with a 25%
     command/address overhead). *)
  let gbits =
    fi (dram.Dram_sim.reads + dram.Dram_sim.writes)
    *. cfg.mem.line_transfer_gbits *. 1.25
  in
  let mem_bus = cfg.mem.bus_mw_per_gbps *. 1e-3 *. (gbits /. t) in
  {
    l1_leak;
    l1_dyn;
    l2_leak;
    l2_dyn;
    xbar_leak;
    xbar_dyn;
    l3_leak;
    l3_dyn;
    l3_refresh;
    mem_chip_dyn;
    mem_standby;
    mem_refresh;
    mem_bus;
  }

type system = {
  power : power;
  core_power : float;
  system_power : float;
  exec_seconds : float;
  energy_joules : float;
  energy_delay : float;
}

let system cfg app st =
  let power = compute cfg app st in
  let exec_seconds =
    float_of_int (Int.max 1 st.Stats.exec_cycles) /. cfg.Machine.clock_hz
  in
  let system_power = memory_hierarchy power +. cfg.Machine.core_power in
  let energy_joules = system_power *. exec_seconds in
  {
    power;
    core_power = cfg.Machine.core_power;
    system_power;
    exec_seconds;
    energy_joules;
    energy_delay = energy_joules *. exec_seconds;
  }
