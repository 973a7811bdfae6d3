open Cacti_tech
open Cacti_array
open Cacti_circuit

type t = {
  spec : Cache_spec.t;
  data : Bank.t;
  tag : Bank.t;
  comparator : Comparator.t;
  t_access : float;
  t_random_cycle : float;
  t_interleave : float;
  dram : Bank.dram_timing option;
  e_read : float;
  e_write : float;
  p_leakage : float;
  p_refresh : float;
  area : float;
  area_per_bank : float;
  area_efficiency : float;
  pipeline_stages : int;
}

let data_spec (s : Cache_spec.t) =
  let sets = Cache_spec.sets_per_bank s in
  let row_bits = 8 * s.Cache_spec.block_bytes * s.Cache_spec.assoc in
  let output_bits =
    match s.Cache_spec.access_mode with
    | Normal | Sequential -> 8 * s.Cache_spec.block_bytes
    | Fast -> row_bits
  in
  Array_spec.create ~ram:s.Cache_spec.ram ~tech:s.Cache_spec.tech
    ~sleep_tx:s.Cache_spec.sleep_tx ~n_rows:sets ~row_bits ~output_bits ()

let tag_spec (s : Cache_spec.t) =
  let sets = Cache_spec.sets_per_bank s in
  let entry_bits = Cache_spec.tag_bits s + s.Cache_spec.status_bits in
  let row_bits = s.Cache_spec.assoc * entry_bits in
  Array_spec.create ~ram:s.Cache_spec.tag_ram ~tech:s.Cache_spec.tech
    ~sleep_tx:s.Cache_spec.sleep_tx ~n_rows:sets ~row_bits
    ~output_bits:row_bits ()

let make_comparator (s : Cache_spec.t) =
  let periph = Technology.peripheral_device s.Cache_spec.tech s.Cache_spec.tag_ram in
  let feature = Technology.feature_size s.Cache_spec.tech in
  let am = Area_model.create ~feature_size:feature ~l_gate:periph.Device.l_phy in
  Comparator.make ~device:periph ~area:am ~feature ~bits:(Cache_spec.tag_bits s)

let combine (s : Cache_spec.t) (data : Bank.t) (tag : Bank.t)
    (comparator : Comparator.t) =
  let n_banks = float_of_int s.Cache_spec.n_banks in
  let assoc = float_of_int s.Cache_spec.assoc in
  let t_tag_path = tag.Bank.t_access +. comparator.Comparator.delay in
  let t_access =
    match s.Cache_spec.access_mode with
    | Normal -> Cacti_util.Floatx.max data.Bank.t_access t_tag_path +. 2e-11
    | Sequential -> t_tag_path +. data.Bank.t_access
    | Fast -> Cacti_util.Floatx.max data.Bank.t_access t_tag_path
  in
  let t_random_cycle =
    Cacti_util.Floatx.max data.Bank.t_random_cycle tag.Bank.t_random_cycle
  in
  let t_interleave =
    Cacti_util.Floatx.max data.Bank.t_interleave tag.Bank.t_interleave
  in
  let e_compare = assoc *. comparator.Comparator.energy in
  (* Sequential access knows the way before touching data, so only the
     matched way's columns are activated: credit the way-dependent part of
     the data-array energy (roughly everything but addressing/H-tree). *)
  let data_read_scale =
    match s.Cache_spec.access_mode with
    | Sequential -> 0.4 +. (0.6 /. assoc)
    | Normal | Fast -> 1.0
  in
  let e_read =
    (data.Bank.e_read *. data_read_scale) +. tag.Bank.e_read +. e_compare
  in
  let e_write = data.Bank.e_write +. tag.Bank.e_write +. e_compare in
  let p_leakage =
    n_banks
    *. (data.Bank.p_leakage +. tag.Bank.p_leakage
       +. (assoc *. comparator.Comparator.leakage))
  in
  let p_refresh = n_banks *. (data.Bank.p_refresh +. tag.Bank.p_refresh) in
  let area_per_bank =
    data.Bank.area +. tag.Bank.area +. (assoc *. comparator.Comparator.area)
  in
  let area = n_banks *. area_per_bank in
  (* Efficiency relative to the data cells (the paper's convention). *)
  let cell_area =
    data.Bank.area_efficiency *. data.Bank.area
    +. (tag.Bank.area_efficiency *. tag.Bank.area)
  in
  {
    spec = s;
    data;
    tag;
    comparator;
    t_access;
    t_random_cycle;
    t_interleave;
    dram = data.Bank.dram;
    e_read;
    e_write;
    p_leakage;
    p_refresh;
    area;
    area_per_bank;
    area_efficiency = cell_area /. area_per_bank;
    pipeline_stages =
      Int.max data.Bank.pipeline_stages tag.Bank.pipeline_stages;
  }

let with_repeater_penalty params (spec : Array_spec.t) =
  {
    spec with
    Array_spec.max_repeater_delay_penalty =
      params.Opt_params.max_repeater_delay_penalty;
  }

let describe_array (s : Cache_spec.t) part =
  Printf.sprintf "%s %s of %dB %d-way cache"
    (Cacti_tech.Cell.ram_kind_to_string s.Cache_spec.ram)
    part s.Cache_spec.capacity_bytes s.Cache_spec.assoc

let solve_diag ?jobs ?cancel ?(params = Opt_params.default) ?(strict = false)
    s =
  let open Cacti_util in
  match (Cache_spec.validate s, Opt_params.validate params) with
  | Error d1, Error d2 -> Error (d1 @ d2)
  | Error ds, Ok _ | Ok _, Error ds -> Error ds
  | Ok _, Ok _ -> (
      match
        ( with_repeater_penalty params (data_spec s),
          with_repeater_penalty params (tag_spec s) )
      with
      | exception Invalid_argument msg ->
          Error [ Diag.error ~component:"cache_model" ~reason:"derived_spec" msg ]
      | dspec, tspec -> (
          let pool = Pool.create ?jobs () in
          let solve_one part spec =
            Solve_cache.select_bank_result ~pool ?cancel ~strict
              ~what:(describe_array s part) ~params spec
          in
          match solve_one "data array" dspec with
          | Error ds -> Error ds
          | Ok d_out -> (
              match solve_one "tag array" tspec with
              | Error ds -> Error ds
              | Ok t_out ->
                  let summary =
                    {
                      Diag.sweeps =
                        Diag.add_counts d_out.Solve_cache.counts
                          t_out.Solve_cache.counts;
                      cache_hits =
                        (if d_out.Solve_cache.from_cache then 1 else 0)
                        + (if t_out.Solve_cache.from_cache then 1 else 0);
                      notes = [];
                    }
                  in
                  Ok
                    ( combine s d_out.Solve_cache.bank t_out.Solve_cache.bank
                        (make_comparator s),
                      summary ))))

let solve ?jobs ?(params = Opt_params.default) ?(strict = false) s =
  let pool = Cacti_util.Pool.create ?jobs () in
  let dspec = with_repeater_penalty params (data_spec s) in
  let tspec = with_repeater_penalty params (tag_spec s) in
  let data =
    Solve_cache.select_bank ~pool ~strict
      ~what:(describe_array s "data array") ~params dspec
  in
  let tag =
    Solve_cache.select_bank ~pool ~strict
      ~what:(describe_array s "tag array") ~params tspec
  in
  combine s data tag (make_comparator s)

let solve_space ?jobs ?(params = Opt_params.default) s =
  let pool = Cacti_util.Pool.create ?jobs () in
  let dspec = with_repeater_penalty params (data_spec s) in
  let tspec = with_repeater_penalty params (tag_spec s) in
  let tag =
    Solve_cache.select_bank ~pool ~what:(describe_array s "tag array") ~params
      tspec
  in
  let cmp = make_comparator s in
  let open Opt_params in
  (* The whole within-area population is the product here, so no
     branch-and-bound pruning (it is only sound for the staged selection);
     the stage memo and the incremental screen context are shared with
     the point solves and cannot change any candidate. *)
  let candidates =
    Bank.enumerate ~pool ~prune:params.max_area_pct
      ~screened:(Solve_cache.screened_for dspec) dspec
  in
  if candidates = [] then []
  else
    let best_area =
      List.fold_left
        (fun acc b -> Cacti_util.Floatx.min acc b.Bank.area)
        Float.infinity candidates
    in
    candidates
    |> List.filter (fun b ->
           b.Bank.area <= best_area *. (1. +. params.max_area_pct))
    |> Cacti_util.Pool.parallel_map pool (fun data -> combine s data tag cmp)
