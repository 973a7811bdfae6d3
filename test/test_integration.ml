(* End-to-end tests across the CACTI-D solver and the architectural
   simulator: the paper's Table-3 relationships and mini versions of the
   Section-4 study conclusions. *)

open Mcsim

let quick_params =
  { Engine.default_params with total_instructions = 2_000_000 }

let built = lazy (List.map (fun k -> Study.build k) Study.all_kinds)

let find kind =
  List.find (fun b -> b.Study.kind = kind) (Lazy.force built)

let test_study_builds_all () =
  let bs = Lazy.force built in
  Alcotest.(check int) "six configurations" 6 (List.length bs);
  List.iter
    (fun b ->
      let m = b.Study.machine in
      Alcotest.(check bool) "memory timing positive" true
        (m.Machine.mem.Machine.timing.Dram_sim.t_rcd > 0);
      match b.Study.kind with
      | Study.No_l3 -> Alcotest.(check bool) "no l3" true (m.Machine.l3 = None)
      | _ -> Alcotest.(check bool) "has l3" true (m.Machine.l3 <> None))
    bs

let l3p b =
  match b.Study.machine.Machine.l3 with
  | Some p -> p
  | None -> Alcotest.fail "expected L3"

let test_table3_relationships () =
  (* The orderings Table 3 exhibits (not its absolute values). *)
  let sram = find Study.Sram_l3 in
  let lp_ed = find Study.Lp_dram_ed in
  let cm_ed = find Study.Cm_dram_ed in
  let cm_c = find Study.Cm_dram_c in
  let lat b = (l3p b).Machine.bank.Machine.latency in
  Alcotest.(check bool) "COMM-DRAM slower than SRAM L3" true
    (lat cm_ed > lat sram);
  Alcotest.(check bool) "COMM-DRAM slower than LP-DRAM" true
    (lat cm_ed > lat lp_ed);
  let leak b =
    let p = l3p b in
    float_of_int p.Machine.n_banks *. p.Machine.bank.Machine.p_leak
  in
  Alcotest.(check bool) "SRAM leakiest" true (leak sram > leak lp_ed);
  Alcotest.(check bool) "COMM leakage tiny" true (leak cm_ed < 0.1 *. leak lp_ed);
  let refr b =
    let p = l3p b in
    float_of_int p.Machine.n_banks *. p.Machine.bank.Machine.p_refresh
  in
  Alcotest.(check (float 0.)) "SRAM no refresh" 0. (refr sram);
  Alcotest.(check bool) "LP refresh >> COMM refresh" true
    (refr lp_ed > 10. *. refr cm_ed);
  Alcotest.(check bool) "192MB has more lines than 96MB" true
    ((l3p cm_c).Machine.bank.Machine.lines
    > (l3p cm_ed).Machine.bank.Machine.lines)

let test_l3_bank_area_budget () =
  (* Section 3.1 fixes 6.2 mm^2 per bank; solutions should be in that
     regime (allow 2x slack for model error). *)
  List.iter
    (fun b ->
      match b.Study.kind with
      | Study.No_l3 -> ()
      | _ ->
          Alcotest.(check bool)
            (Printf.sprintf "%s bank area %.1f mm2 within budget x2"
               (Study.kind_name b.Study.kind)
               (b.Study.l3_bank_area *. 1e6))
            true
            (b.Study.l3_bank_area < 2. *. Study_config.llc_bank_area_budget))
    (Lazy.force built)

let test_mini_study_l3_reduces_memory_traffic () =
  let nol3 = Study.run_app ~params:quick_params (find Study.No_l3) Apps.lu_c in
  let sram = Study.run_app ~params:quick_params (find Study.Sram_l3) Apps.lu_c in
  Alcotest.(check bool) "L3 filters memory reads" true
    (sram.Study.stats.Stats.mem_reads < nol3.Study.stats.Stats.mem_reads);
  Alcotest.(check bool) "L3 improves IPC on lu" true
    (Stats.ipc sram.Study.stats > Stats.ipc nol3.Study.stats)

let test_mini_study_cg_insensitive () =
  let nol3 = Study.run_app ~params:quick_params (find Study.No_l3) Apps.cg_c in
  let cm = Study.run_app ~params:quick_params (find Study.Cm_dram_ed) Apps.cg_c in
  let r =
    Stats.ipc cm.Study.stats /. Stats.ipc nol3.Study.stats
  in
  Alcotest.(check bool)
    (Printf.sprintf "cg speedup %.2f stays below 1.6" r)
    true (r < 1.6)

let test_mini_study_comm_lowest_hierarchy_power () =
  let run b = Study.run_app ~params:quick_params b Apps.ft_b in
  let mh b = Energy.memory_hierarchy (run b).Study.sys.Energy.power in
  let sram = mh (find Study.Sram_l3) in
  let lp = mh (find Study.Lp_dram_ed) in
  let cm = mh (find Study.Cm_dram_ed) in
  Alcotest.(check bool) "LP below SRAM" true (lp < sram);
  Alcotest.(check bool) "COMM below LP" true (cm < lp)

let test_energy_delay_consistency () =
  let r = Study.run_app ~params:quick_params (find Study.Sram_l3) Apps.ua_c in
  let s = r.Study.sys in
  Alcotest.(check bool) "positive EDP" true (s.Energy.energy_delay > 0.);
  Alcotest.(check bool) "system includes 22.3W core" true
    (s.Energy.system_power > Study_config.core_power)

let test_stats_invariants_across_grid () =
  List.iter
    (fun b ->
      let r = Study.run_app ~params:quick_params b (Apps.by_name "mg.B") in
      match Stats.check_consistency r.Study.stats with
      | Ok () -> ()
      | Error e ->
          Alcotest.fail (Study.kind_name b.Study.kind ^ ": " ^ e))
    (Lazy.force built)

(* The determinism contract of the parallel study matrix: any --jobs
   value yields bit-identical results.  Cells are independent (own RNG,
   caches and directory; the caches and directory recycled from earlier
   runs on the same domain) and the pool preserves input order, so
   serial, 2- and 4-worker runs must agree field-for-field on both the
   raw counters and the derived energy numbers.  The calling domain first
   runs a 192 MB COMM-DRAM cell, so the serial run and the calling
   domain's share of the parallel ones reuse a larger machine's state. *)
let test_study_jobs_determinism () =
  let kinds = [ Study.No_l3; Study.Sram_l3 ] in
  let apps = [ Apps.lu_c; Apps.cg_c ] in
  let params = { Engine.default_params with total_instructions = 300_000 } in
  ignore (Lazy.force built) (* warm the memo tables outside the clock *);
  ignore (Study.run_app ~params (find Study.Cm_dram_c) Apps.cg_c);
  let r1 = Study.run_all ~jobs:1 ~params ~kinds ~apps () in
  List.iter
    (fun jobs ->
      let rn = Study.run_all ~jobs ~params ~kinds ~apps () in
      Alcotest.(check int) "same cell count" (List.length r1) (List.length rn);
      List.iter2
        (fun (a : Study.app_result) (b : Study.app_result) ->
          let cell =
            Printf.sprintf "jobs %d: %s/%s" jobs a.Study.app.Workload.name
              (Study.kind_name a.Study.config.Study.kind)
          in
          Alcotest.(check bool) (cell ^ ": same cell") true
            (a.Study.app.Workload.name = b.Study.app.Workload.name
            && a.Study.config.Study.kind = b.Study.config.Study.kind);
          Alcotest.(check bool) (cell ^ ": stats bit-identical") true
            (a.Study.stats = b.Study.stats);
          Alcotest.(check bool) (cell ^ ": energy identical") true
            (a.Study.sys = b.Study.sys))
        r1 rn)
    [ 2; 4 ]

(* A cell that raises must not take the study down: it becomes a
   structured diagnostic and the surviving cells are returned in grid
   order. *)
let test_study_cell_fault_containment () =
  let kinds = [ Study.No_l3 ] in
  let bad = { Apps.lu_c with Workload.mem_ratio = 1.5 } in
  let apps = [ Apps.lu_c; bad; Apps.cg_c ] in
  let params = { Engine.default_params with total_instructions = 100_000 } in
  let oks, diags = Study.run_all_diag ~jobs:2 ~params ~kinds ~apps () in
  Alcotest.(check int) "two survivors" 2 (List.length oks);
  Alcotest.(check int) "one diagnostic" 1 (List.length diags);
  let rendered = Cacti_util.Diag.render diags in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "diag names the failed cell" true
    (contains rendered "cell_failed" && contains rendered "nol3")

let test_thermal_hook () =
  (* Wire CACTI L3 leakage into the thermal model like the benches do. *)
  let sram = find Study.Sram_l3 in
  let p = l3p sram in
  let bank_power = p.Machine.bank.Machine.p_leak +. 0.05 in
  let r =
    Thermal_model.Stack.simulate ~core_die_power:Study_config.core_power
      ~l3_bank_powers:(Array.make 8 bank_power) ~die_w:9e-3 ~die_h:5.6e-3 ()
  in
  Alcotest.(check bool) "solves" true (r.Thermal_model.Stack.max_core_temp > 0.)

let () =
  Alcotest.run "integration"
    [
      ( "study build",
        [
          Alcotest.test_case "all configs" `Slow test_study_builds_all;
          Alcotest.test_case "table 3 relationships" `Slow test_table3_relationships;
          Alcotest.test_case "bank area budget" `Slow test_l3_bank_area_budget;
        ] );
      ( "mini study",
        [
          Alcotest.test_case "L3 filters traffic" `Slow
            test_mini_study_l3_reduces_memory_traffic;
          Alcotest.test_case "cg insensitive" `Slow test_mini_study_cg_insensitive;
          Alcotest.test_case "hierarchy power order" `Slow
            test_mini_study_comm_lowest_hierarchy_power;
          Alcotest.test_case "energy-delay" `Slow test_energy_delay_consistency;
          Alcotest.test_case "stats invariants" `Slow test_stats_invariants_across_grid;
          Alcotest.test_case "thermal hook" `Slow test_thermal_hook;
        ] );
      ( "parallel matrix",
        [
          Alcotest.test_case "jobs determinism" `Slow
            test_study_jobs_determinism;
          Alcotest.test_case "cell fault containment" `Slow
            test_study_cell_fault_containment;
        ] );
    ]
