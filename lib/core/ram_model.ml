open Cacti_array

type spec = {
  capacity_bytes : int;
  word_bits : int;
  n_banks : int;
  ram : Cacti_tech.Cell.ram_kind;
  sleep_tx : bool;
  tech : Cacti_tech.Technology.t;
}

let validate (s : spec) =
  let diags = ref [] in
  let err reason fmt =
    Printf.ksprintf
      (fun m ->
        diags :=
          Cacti_util.Diag.error ~component:"ram_model" ~reason m :: !diags)
      fmt
  in
  if s.capacity_bytes <= 0 then
    err "non_positive" "capacity %d B must be positive" s.capacity_bytes;
  if s.word_bits <= 0 then
    err "non_positive" "word width %d bits must be positive" s.word_bits;
  if s.n_banks < 1 then err "non_positive" "bank count %d must be >= 1" s.n_banks;
  if !diags = [] && s.capacity_bytes mod s.n_banks <> 0 then
    err "indivisible_capacity" "capacity %d B does not divide into %d bank(s)"
      s.capacity_bytes s.n_banks;
  match List.rev !diags with [] -> Ok s | ds -> Error ds

let create ?(word_bits = 64) ?(n_banks = 1) ?(ram = Cacti_tech.Cell.Sram)
    ?(sleep_tx = false) ~tech ~capacity_bytes () =
  match validate { capacity_bytes; word_bits; n_banks; ram; sleep_tx; tech } with
  | Ok s -> s
  | Error (d :: _) ->
      invalid_arg ("Ram_model.create: " ^ d.Cacti_util.Diag.message)
  | Error [] -> assert false

type t = {
  spec : spec;
  bank : Bank.t;
  t_access : float;
  t_random_cycle : float;
  t_interleave : float;
  dram : Bank.dram_timing option;
  e_read : float;
  e_write : float;
  p_leakage : float;
  p_refresh : float;
  area : float;
  area_efficiency : float;
}

let describe (s : spec) =
  Printf.sprintf "%s RAM macro (%dB, %d-bit port)"
    (Cacti_tech.Cell.ram_kind_to_string s.ram)
    s.capacity_bytes s.word_bits

let bank_spec params (s : spec) =
  let bank_bytes = s.capacity_bytes / s.n_banks in
  (* Fold words into rows of ~8 words so the array is roughly square before
     partitioning; the optimizer reshapes from there. *)
  let row_bits = s.word_bits * 8 in
  let n_rows = Int.max 1 (bank_bytes * 8 / row_bits) in
  Array_spec.create ~ram:s.ram ~tech:s.tech ~sleep_tx:s.sleep_tx
    ~max_repeater_delay_penalty:params.Opt_params.max_repeater_delay_penalty
    ~n_rows ~row_bits ~output_bits:s.word_bits ()

let assemble (s : spec) (bank : Bank.t) =
  let n = float_of_int s.n_banks in
  {
    spec = s;
    bank;
    t_access = bank.Bank.t_access;
    t_random_cycle = bank.Bank.t_random_cycle;
    t_interleave = bank.Bank.t_interleave;
    dram = bank.Bank.dram;
    e_read = bank.Bank.e_read;
    e_write = bank.Bank.e_write;
    p_leakage = n *. bank.Bank.p_leakage;
    p_refresh = n *. bank.Bank.p_refresh;
    area = n *. bank.Bank.area;
    area_efficiency = bank.Bank.area_efficiency;
  }

let solve_diag ?jobs ?cancel ?(params = Opt_params.default) ?(strict = false)
    s =
  let open Cacti_util in
  match (validate s, Opt_params.validate params) with
  | Error d1, Error d2 -> Error (d1 @ d2)
  | Error ds, Ok _ | Ok _, Error ds -> Error ds
  | Ok _, Ok _ -> (
      let pool = Pool.create ?jobs () in
      match bank_spec params s with
      | exception Invalid_argument msg ->
          Error [ Diag.error ~component:"ram_model" ~reason:"derived_spec" msg ]
      | aspec -> (
          match
            Solve_cache.select_bank_result ~pool ?cancel ~strict
              ~what:(describe s) ~params aspec
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
              Ok (assemble s o.Solve_cache.bank, summary)))

let solve ?jobs ?(params = Opt_params.default) ?(strict = false) s =
  let pool = Cacti_util.Pool.create ?jobs () in
  let bank =
    Solve_cache.select_bank ~pool ~strict ~what:(describe s) ~params
      (bank_spec params s)
  in
  assemble s bank
