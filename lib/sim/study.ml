open Cacti

type llc_kind = No_l3 | Sram_l3 | Lp_dram_ed | Lp_dram_c | Cm_dram_ed | Cm_dram_c

let all_kinds = [ No_l3; Sram_l3; Lp_dram_ed; Lp_dram_c; Cm_dram_ed; Cm_dram_c ]

let kind_name = function
  | No_l3 -> "nol3"
  | Sram_l3 -> "sram"
  | Lp_dram_ed -> "lp_dram_ed"
  | Lp_dram_c -> "lp_dram_c"
  | Cm_dram_ed -> "cm_dram_ed"
  | Cm_dram_c -> "cm_dram_c"

type built = {
  kind : llc_kind;
  machine : Machine.t;
  l1_model : Cache_model.t;
  l2_model : Cache_model.t;
  l3_model : Cache_model.t option;
  mem_model : Mainmem.t;
  l3_bank_area : float;
}

type app_result = {
  app : Workload.app;
  config : built;
  stats : Stats.t;
  sys : Energy.system;
}

let mib n = n * 1024 * 1024

(* L3 design points of Section 4.1. *)
let l3_spec kind tech =
  let mk cap assoc ram params =
    ( Cache_spec.create ~tech ~capacity_bytes:cap ~assoc ~n_banks:8 ~ram
        ~sleep_tx:(ram = Cacti_tech.Cell.Sram) (),
      params )
  in
  match kind with
  | No_l3 -> None
  | Sram_l3 -> Some (mk (mib 24) 12 Cacti_tech.Cell.Sram Opt_params.default)
  | Lp_dram_ed ->
      Some (mk (mib 48) 12 Cacti_tech.Cell.Lp_dram Opt_params.energy_optimal)
  | Lp_dram_c ->
      Some (mk (mib 72) 18 Cacti_tech.Cell.Lp_dram Opt_params.area_optimal)
  | Cm_dram_ed ->
      Some (mk (mib 96) 12 Cacti_tech.Cell.Comm_dram Opt_params.energy_optimal)
  | Cm_dram_c ->
      Some (mk (mib 192) 24 Cacti_tech.Cell.Comm_dram Opt_params.area_optimal)

(* Memoize CACTI runs: they cost seconds each and the six configurations
   share L1/L2/main-memory solutions.  The tables can be consulted from
   pool workers when the study matrix fans out, so every lookup/insert
   holds [memo_lock]; the solve itself runs outside the lock (two domains
   racing on the same key at worst solve it twice — both arrive at the
   same deterministic model, and the first insert wins). *)
let memo_lock = Mutex.create ()
let memo_l1 : (int, Cache_model.t) Hashtbl.t = Hashtbl.create 4
let memo_l2 : (int, Cache_model.t) Hashtbl.t = Hashtbl.create 4
let memo_mem : (int, Mainmem.t) Hashtbl.t = Hashtbl.create 4
let memo_l3 : (int * int, Cache_model.t) Hashtbl.t = Hashtbl.create 8

let tech_key tech =
  int_of_float (Cacti_tech.Technology.feature_size tech *. 1e12)

let kind_key = function
  | No_l3 -> 0
  | Sram_l3 -> 1
  | Lp_dram_ed -> 2
  | Lp_dram_c -> 3
  | Cm_dram_ed -> 4
  | Cm_dram_c -> 5

let memoize tbl key f =
  match Mutex.protect memo_lock (fun () -> Hashtbl.find_opt tbl key) with
  | Some v -> v
  | None ->
      let v = f () in
      Mutex.protect memo_lock (fun () ->
          match Hashtbl.find_opt tbl key with
          | Some v' -> v'
          | None ->
              Hashtbl.add tbl key v;
              v)

let solve_l1 ?jobs tech =
  memoize memo_l1 (tech_key tech) (fun () ->
      Cache_model.solve ?jobs
        (Cache_spec.create ~tech ~capacity_bytes:(32 * 1024) ~assoc:8 ()))

let solve_l2 ?jobs tech =
  memoize memo_l2 (tech_key tech) (fun () ->
      Cache_model.solve ?jobs
        (Cache_spec.create ~tech ~capacity_bytes:(1024 * 1024) ~assoc:8 ()))

let solve_mem ?jobs tech =
  memoize memo_mem (tech_key tech) (fun () ->
      Mainmem.solve ?jobs
        (Mainmem.create ~tech ~capacity_bits:(8 * 1024 * 1024 * 1024)
           ~page_bits:8192 ~prefetch:8 ~burst:8 ~interface:Mainmem.ddr4 ()))

let solve_l3 ?jobs tech kind =
  match l3_spec kind tech with
  | None -> None
  | Some (spec, params) ->
      Some
        (memoize memo_l3
           (tech_key tech, kind_key kind)
           (fun () -> Cache_model.solve ?jobs ~params spec))

let clock = Study_config.clock_hz

let cycles_of_s t = Int.max 1 (int_of_float (Float.ceil (t *. clock)))

(* Latency quantization: the cache's access time in CPU cycles plus a cycle
   of control overhead (the paper quantizes the same way when deriving its
   Table 3 cycle counts and miss penalties). *)
let cache_params_of ?(extra_latency = 1) ~lines ~assoc (m : Cache_model.t)
    ~per_banks () : Machine.cache_params =
  let fb = float_of_int per_banks in
  {
    Machine.lines;
    assoc;
    latency = cycles_of_s m.Cache_model.t_access + extra_latency;
    cycle = Int.max 1 (cycles_of_s m.Cache_model.t_interleave);
    e_read = m.Cache_model.e_read;
    e_write = m.Cache_model.e_write;
    p_leak = m.Cache_model.p_leakage /. fb;
    p_refresh = m.Cache_model.p_refresh /. fb;
  }

let build ?jobs ?tech kind =
  let tech =
    match tech with Some t -> t | None -> Cacti_tech.Technology.at_nm 32.
  in
  let l1m = solve_l1 ?jobs tech in
  let l2m = solve_l2 ?jobs tech in
  let l3m = solve_l3 ?jobs tech kind in
  let mm = solve_mem ?jobs tech in
  let lb = Study_config.line_bytes in
  let l1 =
    cache_params_of ~lines:(32 * 1024 / lb) ~assoc:8 l1m ~per_banks:1 ()
  in
  let l2 =
    cache_params_of ~extra_latency:2 ~lines:(1024 * 1024 / lb) ~assoc:8 l2m
      ~per_banks:1 ()
  in
  let l3, l3_bank_area =
    match (l3m, l3_spec kind tech) with
    | Some m, Some (spec, _) ->
        let n_banks = spec.Cache_spec.n_banks in
        let lines = spec.Cache_spec.capacity_bytes / lb / n_banks in
        let bank =
          cache_params_of ~extra_latency:2 ~lines ~assoc:spec.Cache_spec.assoc
            m ~per_banks:n_banks ()
        in
        (* Crossbar between the L2s and the stacked L3 banks, on the core
           die: long-channel devices and relaxed repeaters keep its leakage
           in check (it idles most cycles). *)
        let periph = Cacti_tech.Technology.device tech Hp_long_channel in
        let feature = Cacti_tech.Technology.feature_size tech in
        let am =
          Cacti_circuit.Area_model.create ~feature_size:feature
            ~l_gate:periph.Cacti_tech.Device.l_phy
        in
        let xbar =
          Cacti_circuit.Crossbar.design ~device:periph ~area:am ~feature
            ~wire:(Cacti_tech.Technology.wire tech Global)
            ~max_repeater_delay_penalty:0.3 ~n_in:Study_config.n_cores
            ~n_out:n_banks ~bits:(8 * lb) ~span:Study_config.xbar_span ()
        in
        ( Some
            {
              Machine.bank;
              n_banks;
              xbar_latency =
                cycles_of_s xbar.Cacti_circuit.Crossbar.delay + 1;
              e_xbar = xbar.Cacti_circuit.Crossbar.e_per_transfer;
              p_xbar_leak = xbar.Cacti_circuit.Crossbar.leakage;
            },
          m.Cache_model.area_per_bank )
    | _ -> (None, 0.)
  in
  let chips = float_of_int Study_config.chips_per_rank in
  let mem =
    {
      Machine.timing =
        (let t_rrd = Int.max (cycles_of_s mm.Mainmem.t_rrd) 4 in
         {
           Dram_sim.t_rcd = cycles_of_s mm.Mainmem.t_rcd;
           t_cas = cycles_of_s mm.Mainmem.t_cas;
           t_rp = cycles_of_s mm.Mainmem.t_rp;
           t_rc = cycles_of_s mm.Mainmem.t_rc;
           t_rrd;
           (* DDR4 secondary constraints at 2 GHz CPU cycles. *)
           t_faw = Int.max (4 * t_rrd) 42 (* ~21 ns *);
           t_wtr = 15 (* ~7.5 ns *);
           t_refi = 15_600 (* 7.8 us *);
           t_rfc = 700 (* ~350 ns for an 8Gb device *);
           t_burst = Study_config.mem_burst_cycles;
           t_ctrl = Study_config.mem_ctrl_cycles;
         });
      policy = Dram_sim.Open_page;
      powerdown = None;
      n_channels = Study_config.n_mem_channels;
      n_banks = mm.Mainmem.chip.Mainmem.n_banks;
      n_chips_per_rank = Study_config.chips_per_rank;
      e_activate = chips *. mm.Mainmem.e_activate;
      e_read = chips *. mm.Mainmem.e_read;
      e_write = chips *. mm.Mainmem.e_write;
      p_standby = chips *. mm.Mainmem.p_standby;
      p_refresh = chips *. mm.Mainmem.p_refresh;
      bus_mw_per_gbps = Study_config.bus_mw_per_gbps;
      line_transfer_gbits = float_of_int (8 * lb) /. 1e9;
    }
  in
  let machine =
    {
      Machine.name = kind_name kind;
      n_cores = Study_config.n_cores;
      threads_per_core = Study_config.threads_per_core;
      clock_hz = clock;
      l1;
      l2;
      l3;
      mem;
      core_power = Study_config.core_power;
      instr_per_fetch_line = Study_config.instr_per_fetch_line;
    }
  in
  { kind; machine; l1_model = l1m; l2_model = l2m; l3_model = l3m;
    mem_model = mm; l3_bank_area }

let run_cell ?params ?make_gen built app =
  let stats = Engine.run ?params ?make_gen built.machine app in
  let sys = Energy.system built.machine app stats in
  { app; config = built; stats; sys }

let run_app ?params built app = run_cell ?params built app

(* The (app × config) simulation matrix, fanned over a domain pool.  The
   CACTI builds run serially up front (they memoize against shared tables
   and use the solver's own inner parallelism); each simulation cell is
   then fully independent — its own RNG, caches and DRAM state — so
   [Pool.parallel_map], which preserves input order, yields exactly the
   serial result list for any [jobs].  [chunk:1] because a cell costs
   seconds, not microseconds.  Failures are contained per cell. *)
let run_cells ?jobs ?params ?make_gen ~kinds ~apps () =
  let builts = List.map (fun k -> build ?jobs k) kinds in
  let cells =
    List.concat_map (fun app -> List.map (fun b -> (app, b)) builts) apps
  in
  let pool = Cacti_util.Pool.create ?jobs () in
  Cacti_util.Pool.parallel_map ~chunk:1 pool
    (fun (app, b) ->
      match run_cell ?params ?make_gen b app with
      | r -> (app, b, Ok r)
      | exception e -> (app, b, Error (e, Printexc.get_raw_backtrace ())))
    cells

let run_all ?jobs ?params ?(kinds = all_kinds) ?(apps = Apps.all) () =
  run_cells ?jobs ?params ~kinds ~apps ()
  |> List.map (fun (_, _, res) ->
         match res with
         | Ok r -> r
         | Error (e, bt) -> Printexc.raise_with_backtrace e bt)

let run_all_diag ?jobs ?params ?make_gen ?(kinds = all_kinds)
    ?(apps = Apps.all) () =
  let results = run_cells ?jobs ?params ?make_gen ~kinds ~apps () in
  let oks =
    List.filter_map
      (fun (_, _, res) -> match res with Ok r -> Some r | Error _ -> None)
      results
  in
  let diags =
    List.filter_map
      (fun (app, b, res) ->
        match res with
        | Ok _ -> None
        | Error (e, _) ->
            Some
              (Cacti_util.Diag.errorf ~component:"study" ~reason:"cell_failed"
                 "%s on %s: %s" app.Workload.name (kind_name b.kind)
                 (Printexc.to_string e)))
      results
  in
  (oks, diags)
