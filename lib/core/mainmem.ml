open Cacti_array

type interface = {
  name : string;
  io_delay : float;
  io_energy_per_bit : float;
  io_standby : float;
}

let ddr3 =
  { name = "DDR3"; io_delay = 8.0e-9; io_energy_per_bit = 15.0e-12; io_standby = 0.055 }

let ddr4 =
  { name = "DDR4"; io_delay = 10.0e-9; io_energy_per_bit = 8.0e-12; io_standby = 0.085 }

type chip = {
  capacity_bits : int;
  n_banks : int;
  io_bits : int;
  prefetch : int;
  burst : int;
  page_bits : int;
  ram : Cacti_tech.Cell.ram_kind;
  tech : Cacti_tech.Technology.t;
  interface : interface;
}

let validate (c : chip) =
  let diags = ref [] in
  let err reason fmt =
    Printf.ksprintf
      (fun m ->
        diags := Cacti_util.Diag.error ~component:"mainmem" ~reason m :: !diags)
      fmt
  in
  if c.capacity_bits <= 0 then
    err "non_positive" "capacity %d bits must be positive" c.capacity_bits;
  if c.n_banks < 1 then err "non_positive" "bank count %d must be >= 1" c.n_banks;
  if c.io_bits < 1 then err "non_positive" "IO width %d must be >= 1" c.io_bits;
  if c.prefetch < 1 then
    err "non_positive" "prefetch %d must be >= 1" c.prefetch;
  if c.burst < 1 then err "non_positive" "burst length %d must be >= 1" c.burst;
  if c.page_bits < 1 then
    err "non_positive" "page size %d bits must be >= 1" c.page_bits;
  if not (Cacti_tech.Cell.is_dram c.ram) then
    err "not_dram" "main-memory chips need a DRAM cell type, got %s"
      (Cacti_tech.Cell.ram_kind_to_string c.ram);
  if !diags = [] && c.capacity_bits mod (c.n_banks * c.page_bits) <> 0 then
    err "indivisible_capacity"
      "capacity %d bits does not divide into %d bank(s) of %d-bit pages"
      c.capacity_bits c.n_banks c.page_bits;
  match List.rev !diags with [] -> Ok c | ds -> Error ds

let create_result ?(n_banks = 8) ?(io_bits = 8) ?(prefetch = 8) ?(burst = 8)
    ?(page_bits = 8192) ?(ram = Cacti_tech.Cell.Comm_dram) ?(interface = ddr3)
    ~tech ~capacity_bits () =
  validate
    { capacity_bits; n_banks; io_bits; prefetch; burst; page_bits; ram; tech;
      interface }

let create ?n_banks ?io_bits ?prefetch ?burst ?page_bits ?ram ?interface ~tech
    ~capacity_bits () =
  match
    create_result ?n_banks ?io_bits ?prefetch ?burst ?page_bits ?ram
      ?interface ~tech ~capacity_bits ()
  with
  | Ok c -> c
  | Error (d :: _) -> invalid_arg ("Mainmem.create: " ^ d.Cacti_util.Diag.message)
  | Error [] -> assert false

type t = {
  chip : chip;
  bank : Bank.t;
  t_rcd : float;
  t_cas : float;
  t_ras : float;
  t_rp : float;
  t_rc : float;
  t_rrd : float;
  t_access : float;
  e_activate : float;
  e_read : float;
  e_write : float;
  p_refresh : float;
  p_standby : float;
  area : float;
  area_efficiency : float;
}

(* Command decode ahead of the bank's own decoders. *)
let t_command = 1.0e-9

(* Pad ring, command/IO blocks, redundancy: chip area overhead over the
   banks. *)
let chip_area_overhead = 0.12

let bank_spec params (c : chip) =
  let bank_bits = c.capacity_bits / c.n_banks in
  let n_rows = bank_bits / c.page_bits in
  Array_spec.create ~ram:c.ram ~tech:c.tech ~page_bits:c.page_bits
    ~max_repeater_delay_penalty:params.Opt_params.max_repeater_delay_penalty
    ~n_rows ~row_bits:c.page_bits
    ~output_bits:(c.io_bits * c.prefetch) ()

let describe_bank (c : chip) =
  Printf.sprintf "main-memory bank (%d banks, %db pages)" c.n_banks c.page_bits

let assemble params (c : chip) (bank : Bank.t) =
  let d = match bank.Bank.dram with Some d -> d | None -> assert false in
  (* Bank-to-IO routing across the chip: commodity parts route data and
     command over the full die with sparse repeaters. *)
  let periph = Cacti_tech.Technology.peripheral_device c.tech c.ram in
  let feature = Cacti_tech.Technology.feature_size c.tech in
  let area_model =
    Cacti_circuit.Area_model.create ~feature_size:feature
      ~l_gate:periph.Cacti_tech.Device.l_phy
  in
  let rep =
    Cacti_circuit.Repeater.design ~device:periph ~area:area_model ~feature
      ~max_delay_penalty:params.Opt_params.max_repeater_delay_penalty
      ~wire:(Cacti_tech.Technology.wire c.tech Semi_global)
      ()
  in
  let chip_span =
    0.7 *. sqrt (float_of_int c.n_banks *. bank.Bank.area *. (1. +. chip_area_overhead))
  in
  let route = Cacti_circuit.Repeater.drive rep ~length:chip_span in
  let t_route = route.Cacti_circuit.Stage.delay in
  let e_route_bit = route.Cacti_circuit.Stage.energy in
  let t_rcd = t_command +. t_route +. d.Bank.t_rcd in
  let t_cas = d.Bank.t_cas +. t_route +. c.interface.io_delay in
  let t_ras = t_command +. d.Bank.t_ras in
  let t_rp = d.Bank.t_rp +. t_command in
  let t_rc = t_ras +. t_rp in
  let t_rrd = Cacti_util.Floatx.max d.Bank.t_rrd (t_command *. 2.) in
  (* Column accesses needed to satisfy one burst. *)
  let bits_per_burst = c.io_bits * c.burst in
  let col_accesses =
    Int.max 1
      ((bits_per_burst + (c.io_bits * c.prefetch) - 1)
      / (c.io_bits * c.prefetch))
  in
  let e_col_read =
    bank.Bank.e_read -. bank.Bank.e_activate -. bank.Bank.e_precharge
  in
  let e_col_write =
    bank.Bank.e_write -. bank.Bank.e_activate -. bank.Bank.e_precharge
  in
  let e_io = float_of_int bits_per_burst *. c.interface.io_energy_per_bit in
  let e_chip_route =
    float_of_int bits_per_burst *. 0.5 *. e_route_bit
  in
  let e_read = (float_of_int col_accesses *. e_col_read) +. e_io +. e_chip_route in
  let e_write = (float_of_int col_accesses *. e_col_write) +. e_io +. e_chip_route in
  let e_activate = bank.Bank.e_activate +. bank.Bank.e_precharge in
  let p_refresh = float_of_int c.n_banks *. bank.Bank.p_refresh in
  let p_standby =
    (float_of_int c.n_banks *. bank.Bank.p_leakage) +. c.interface.io_standby
  in
  let area =
    float_of_int c.n_banks *. bank.Bank.area *. (1. +. chip_area_overhead)
  in
  let area_efficiency =
    bank.Bank.area_efficiency *. bank.Bank.area *. float_of_int c.n_banks
    /. area
  in
  {
    chip = c;
    bank;
    t_rcd;
    t_cas;
    t_ras;
    t_rp;
    t_rc;
    t_rrd;
    t_access = t_rcd +. t_cas;
    e_activate;
    e_read;
    e_write;
    p_refresh;
    p_standby;
    area;
    area_efficiency;
  }

let solve_diag ?jobs ?cancel ?(params = Opt_params.area_optimal)
    ?(strict = false) (c : chip) =
  let open Cacti_util in
  match (validate c, Opt_params.validate params) with
  | Error d1, Error d2 -> Error (d1 @ d2)
  | Error ds, Ok _ | Ok _, Error ds -> Error ds
  | Ok _, Ok _ -> (
      let pool = Pool.create ?jobs () in
      match bank_spec params c with
      | exception Invalid_argument msg ->
          Error [ Diag.error ~component:"mainmem" ~reason:"derived_spec" msg ]
      | spec -> (
          match
            Solve_cache.select_bank_result ~pool ?cancel ~max_ndwl:128
              ~max_ndbl:256 ~strict ~what:(describe_bank c) ~params spec
          with
          | Error ds -> Error ds
          | Ok o ->
              let summary =
                {
                  Diag.sweeps = o.Solve_cache.counts;
                  cache_hits = (if o.Solve_cache.from_cache then 1 else 0);
                  notes = [];
                }
              in
              Ok (assemble params c o.Solve_cache.bank, summary)))

let solve ?jobs ?(params = Opt_params.area_optimal) ?(strict = false)
    (c : chip) =
  let pool = Cacti_util.Pool.create ?jobs () in
  let spec = bank_spec params c in
  let bank =
    Solve_cache.select_bank ~pool ~max_ndwl:128 ~max_ndbl:256 ~strict
      ~what:(describe_bank c) ~params spec
  in
  assemble params c bank
