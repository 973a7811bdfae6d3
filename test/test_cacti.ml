open Cacti
open Cacti_array

let t32 = Cacti_tech.Technology.at_nm 32.

let l1_spec = Cache_spec.create ~tech:t32 ~capacity_bytes:(32 * 1024) ()

let test_cache_spec_defaults () =
  Alcotest.(check int) "block" 64 l1_spec.Cache_spec.block_bytes;
  Alcotest.(check int) "assoc" 8 l1_spec.Cache_spec.assoc;
  Alcotest.(check int) "sets" 64 (Cache_spec.sets_per_bank l1_spec);
  (* 42 - log2(64 sets) - log2(64B) = 30 tag bits *)
  Alcotest.(check int) "tag bits" 30 (Cache_spec.tag_bits l1_spec)

let test_cache_spec_validation () =
  let bad f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "non-pow2 block" true
    (bad (fun () ->
         ignore (Cache_spec.create ~tech:t32 ~capacity_bytes:4096 ~block_bytes:48 ())));
  Alcotest.(check bool) "indivisible capacity" true
    (bad (fun () ->
         ignore
           (Cache_spec.create ~tech:t32 ~capacity_bytes:(100 * 1000) ())))

let test_cache_spec_tag_ram_follows_data () =
  let s =
    Cache_spec.create ~tech:t32 ~capacity_bytes:(1024 * 1024)
      ~ram:Cacti_tech.Cell.Comm_dram ()
  in
  Alcotest.(check bool) "tags default to data technology" true
    (s.Cache_spec.tag_ram = Cacti_tech.Cell.Comm_dram)

(* Shared small solves (exercised by several tests). *)
let l1 = lazy (Cache_model.solve l1_spec)

let l2 =
  lazy
    (Cache_model.solve (Cache_spec.create ~tech:t32 ~capacity_bytes:(1024 * 1024) ()))

let test_solve_l1_plausible () =
  let c = Lazy.force l1 in
  Alcotest.(check bool) "access in [0.2, 2] ns" true
    (c.Cache_model.t_access > 0.2e-9 && c.Cache_model.t_access < 2e-9);
  Alcotest.(check bool) "area in [0.05, 0.5] mm2" true
    (c.Cache_model.area > 0.05e-6 && c.Cache_model.area < 0.5e-6);
  Alcotest.(check bool) "read energy < 0.3 nJ" true
    (c.Cache_model.e_read < 0.3e-9);
  Alcotest.(check bool) "leakage in [1, 50] mW" true
    (c.Cache_model.p_leakage > 1e-3 && c.Cache_model.p_leakage < 50e-3)

let test_l2_slower_bigger_than_l1 () =
  let a = Lazy.force l1 and b = Lazy.force l2 in
  Alcotest.(check bool) "slower" true
    (b.Cache_model.t_access > a.Cache_model.t_access);
  Alcotest.(check bool) "bigger" true (b.Cache_model.area > a.Cache_model.area);
  Alcotest.(check bool) "leakier" true
    (b.Cache_model.p_leakage > a.Cache_model.p_leakage);
  Alcotest.(check bool) "costlier reads" true
    (b.Cache_model.e_read > a.Cache_model.e_read)

let test_sequential_mode_slower () =
  let mk m =
    Cache_model.solve
      (Cache_spec.create ~tech:t32 ~capacity_bytes:(256 * 1024) ~access_mode:m ())
  in
  let n = mk Cache_spec.Normal and s = mk Cache_spec.Sequential in
  Alcotest.(check bool) "sequential slower" true
    (s.Cache_model.t_access > n.Cache_model.t_access);
  Alcotest.(check bool) "sequential saves read energy" true
    (s.Cache_model.e_read < n.Cache_model.e_read)


let test_fast_mode_ships_all_ways () =
  (* Fast mode reads all ways to the edge: no slower than Normal, but more
     read energy. *)
  let mk m =
    Cache_model.solve
      (Cache_spec.create ~tech:t32 ~capacity_bytes:(256 * 1024) ~assoc:4
         ~access_mode:m ())
  in
  let n = mk Cache_spec.Normal and f = mk Cache_spec.Fast in
  Alcotest.(check bool) "fast costs more energy" true
    (f.Cache_model.e_read > n.Cache_model.e_read)

(* The production selection over a fresh sweep: the fused column argmin,
   materializing only the winner. *)
let select_sweep ~params sw =
  match Optimizer.select_soa_result ~params sw.Bank.sw_soa with
  | Ok i -> Bank.sweep_bank sw i
  | Error msg -> Alcotest.fail msg

let test_optimizer_staged_filters () =
  let spec =
    Array_spec.create ~ram:Cacti_tech.Cell.Sram ~tech:t32 ~n_rows:1024
      ~row_bits:4096 ~output_bits:512 ()
  in
  let sw = Bank.enumerate_soa ~max_ndwl:16 ~max_ndbl:16 spec in
  let cands = Bank.enumerate ~max_ndwl:16 ~max_ndbl:16 spec in
  let best_area =
    List.fold_left (fun acc b -> min acc b.Bank.area) Float.infinity cands
  in
  let params = { Opt_params.default with max_area_pct = 0.2 } in
  let chosen = select_sweep ~params sw in
  Alcotest.(check bool) "area constraint respected" true
    (chosen.Bank.area <= best_area *. 1.2 +. 1e-15);
  (* And the access-time constraint relative to the area-feasible subset. *)
  let feasible =
    List.filter (fun b -> b.Bank.area <= best_area *. 1.2) cands
  in
  let best_t =
    List.fold_left (fun acc b -> min acc b.Bank.t_access) Float.infinity
      feasible
  in
  Alcotest.(check bool) "acctime constraint respected" true
    (chosen.Bank.t_access
    <= best_t *. (1. +. params.Opt_params.max_acctime_pct) +. 1e-15)

let test_optimizer_weights_steer () =
  let spec =
    Array_spec.create ~ram:Cacti_tech.Cell.Sram ~tech:t32 ~n_rows:1024
      ~row_bits:4096 ~output_bits:512 ()
  in
  let sw = Bank.enumerate_soa ~max_ndwl:16 ~max_ndbl:16 spec in
  let loose = { Opt_params.default with max_area_pct = 1.0; max_acctime_pct = 1.5 } in
  let energy_first =
    {
      loose with
      Opt_params.weights =
        { w_dynamic = 10.; w_leakage = 10.; w_cycle = 0.1; w_interleave = 0.1 };
    }
  in
  let cycle_first =
    {
      loose with
      Opt_params.weights =
        { w_dynamic = 0.1; w_leakage = 0.1; w_cycle = 10.; w_interleave = 10. };
    }
  in
  let e = select_sweep ~params:energy_first sw in
  let c = select_sweep ~params:cycle_first sw in
  Alcotest.(check bool) "energy pick no worse on energy" true
    (e.Bank.e_read <= c.Bank.e_read +. 1e-15);
  Alcotest.(check bool) "cycle pick no worse on cycle" true
    (c.Bank.t_random_cycle <= e.Bank.t_random_cycle +. 1e-15)

let test_pareto_frontier () =
  let spec =
    Array_spec.create ~ram:Cacti_tech.Cell.Sram ~tech:t32 ~n_rows:512
      ~row_bits:2048 ~output_bits:256 ()
  in
  let cands = Bank.enumerate ~max_ndwl:8 ~max_ndbl:8 spec in
  let front = Oracle.Pareto.pareto_access_area cands in
  Alcotest.(check bool) "frontier non-empty and smaller" true
    (front <> [] && List.length front <= List.length cands);
  (* No frontier point dominates another. *)
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if a != b then
            Alcotest.(check bool) "no domination" false
              (a.Bank.t_access < b.Bank.t_access && a.Bank.area < b.Bank.area
               && not
                    (List.exists (fun c -> c == b) front && false)))
        front)
    front

let test_solve_space_nonempty () =
  let sols = Cache_model.solve_space l1_spec in
  Alcotest.(check bool) "space has solutions" true (List.length sols > 3)

let test_ram_model () =
  let spec = Ram_model.create ~tech:t32 ~capacity_bytes:(64 * 1024) () in
  let r = Ram_model.solve spec in
  Alcotest.(check bool) "plausible access" true
    (r.Ram_model.t_access > 0.1e-9 && r.Ram_model.t_access < 3e-9);
  Alcotest.(check bool) "efficiency sane" true
    (r.Ram_model.area_efficiency > 0.1 && r.Ram_model.area_efficiency < 0.95)

let test_ram_model_dram_refresh () =
  let spec =
    Ram_model.create ~tech:t32 ~ram:Cacti_tech.Cell.Lp_dram
      ~capacity_bytes:(2 * 1024 * 1024) ()
  in
  let r = Ram_model.solve spec in
  Alcotest.(check bool) "refresh power > 0" true (r.Ram_model.p_refresh > 0.);
  Alcotest.(check bool) "dram timing present" true (r.Ram_model.dram <> None)


let test_all_nodes_solvable () =
  List.iter
    (fun nm ->
      let tech = Cacti_tech.Technology.at_nm nm in
      let c =
        Cache_model.solve
          (Cache_spec.create ~tech ~capacity_bytes:(64 * 1024) ~assoc:4 ())
      in
      Alcotest.(check bool)
        (Printf.sprintf "%.0fnm solves" nm)
        true
        (c.Cache_model.t_access > 0.))
    [ 90.; 78.; 65.; 45.; 32. ]

let test_scaling_improves_delay_and_energy () =
  let solve nm =
    Cache_model.solve
      (Cache_spec.create
         ~tech:(Cacti_tech.Technology.at_nm nm)
         ~capacity_bytes:(256 * 1024) ())
  in
  let c90 = solve 90. and c32 = solve 32. in
  Alcotest.(check bool) "32nm faster" true
    (c32.Cache_model.t_access < c90.Cache_model.t_access);
  Alcotest.(check bool) "32nm smaller" true (c32.Cache_model.area < c90.Cache_model.area);
  Alcotest.(check bool) "32nm cheaper reads" true
    (c32.Cache_model.e_read < c90.Cache_model.e_read)

let mm_chip =
  lazy
    (Mainmem.solve
       (Mainmem.create ~tech:(Cacti_tech.Technology.at_nm 78.)
          ~capacity_bits:(1024 * 1024 * 1024) ~page_bits:8192 ()))

let test_mainmem_timing_order () =
  let m = Lazy.force mm_chip in
  Alcotest.(check bool) "tRC = tRAS + tRP" true
    (Float.abs (m.Mainmem.t_rc -. (m.Mainmem.t_ras +. m.Mainmem.t_rp)) < 1e-15);
  Alcotest.(check bool) "tRAS > tRCD (restore included)" true
    (m.Mainmem.t_ras > m.Mainmem.t_rcd);
  Alcotest.(check bool) "access = tRCD + CAS" true
    (Float.abs (m.Mainmem.t_access -. (m.Mainmem.t_rcd +. m.Mainmem.t_cas))
    < 1e-15);
  Alcotest.(check bool) "tRRD << tRC (multibank interleaving)" true
    (m.Mainmem.t_rrd < m.Mainmem.t_rc /. 2.)

let test_mainmem_vs_micron_band () =
  (* The Table 2 validation: stay within a generous ±45% of the 78 nm Micron
     DDR3-1066 datasheet numbers (the paper's own errors reach 33%). *)
  let m = Lazy.force mm_chip in
  let within x target band =
    Float.abs (Cacti_util.Floatx.rel_err ~actual:target ~model:x) <= band
  in
  Alcotest.(check bool) "tRCD ~13.1ns" true (within m.Mainmem.t_rcd 13.1e-9 0.45);
  Alcotest.(check bool) "CAS ~13.1ns" true (within m.Mainmem.t_cas 13.1e-9 0.45);
  Alcotest.(check bool) "tRC ~52.5ns" true (within m.Mainmem.t_rc 52.5e-9 0.45);
  Alcotest.(check bool) "ACT ~3.1nJ" true (within m.Mainmem.e_activate 3.1e-9 0.45);
  Alcotest.(check bool) "RD ~1.6nJ" true (within m.Mainmem.e_read 1.6e-9 0.45);
  Alcotest.(check bool) "refresh ~3.5mW" true
    (within m.Mainmem.p_refresh 3.5e-3 1.2);
  Alcotest.(check bool) "area efficiency ~56%" true
    (within m.Mainmem.area_efficiency 0.56 0.25)

let test_mainmem_page_size_respected () =
  let m = Lazy.force mm_chip in
  let bank = m.Mainmem.bank in
  Alcotest.(check int) "slice sense amps = page" 8192
    (bank.Bank.active_mats * bank.Bank.mat.Mat.sensed_bits)

let test_mainmem_burst_energy_scales () =
  let mk burst =
    Mainmem.solve
      (Mainmem.create ~tech:t32 ~capacity_bits:(1024 * 1024 * 1024)
         ~page_bits:8192 ~prefetch:4 ~burst ())
  in
  let b4 = mk 4 and b8 = mk 8 in
  Alcotest.(check bool) "longer burst, more read energy" true
    (b8.Mainmem.e_read > b4.Mainmem.e_read)

let test_mainmem_create_validation () =
  Alcotest.(check bool) "indivisible" true
    (try
       ignore (Mainmem.create ~tech:t32 ~capacity_bits:12345 ());
       false
     with Invalid_argument _ -> true)


(* --- parallel solver, memo cache, typed failures -------------------- *)

let test_jobs_determinism () =
  let check name spec =
    Solve_cache.clear ();
    let a = Cache_model.solve ~jobs:1 spec in
    Solve_cache.clear ();
    let b = Cache_model.solve ~jobs:4 spec in
    Alcotest.(check (float 0.)) (name ^ " t_access") a.Cache_model.t_access
      b.Cache_model.t_access;
    Alcotest.(check (float 0.)) (name ^ " area") a.Cache_model.area
      b.Cache_model.area;
    Alcotest.(check (float 0.)) (name ^ " e_read") a.Cache_model.e_read
      b.Cache_model.e_read;
    Alcotest.(check bool) (name ^ " same data org") true
      (a.Cache_model.data.Bank.org = b.Cache_model.data.Bank.org)
  in
  check "sram 256KB" (Cache_spec.create ~tech:t32 ~capacity_bytes:(256 * 1024) ());
  check "comm-dram 4MB"
    (Cache_spec.create ~tech:t32 ~capacity_bytes:(4 * 1024 * 1024)
       ~ram:Cacti_tech.Cell.Comm_dram ());
  Solve_cache.clear ()

let test_solve_cache_hit_same_value () =
  Solve_cache.clear ();
  let spec = Cache_spec.create ~tech:t32 ~capacity_bytes:(64 * 1024) () in
  let a = Cache_model.solve spec in
  let s1 = Solve_cache.stats () in
  let b = Cache_model.solve spec in
  let s2 = Solve_cache.stats () in
  Alcotest.(check bool) "second solve hits the cache" true
    (s2.Solve_cache.hits > s1.Solve_cache.hits);
  Alcotest.(check int) "no new misses" s1.Solve_cache.misses
    s2.Solve_cache.misses;
  Alcotest.(check (float 0.)) "same access" a.Cache_model.t_access
    b.Cache_model.t_access;
  Alcotest.(check bool) "cached bank is shared" true
    (a.Cache_model.data == b.Cache_model.data);
  Solve_cache.clear ()

let test_select_empty_is_typed_error () =
  (* A valid spec whose design space is empty: every organization of a
     1 KB 8-way data array fails the tiling screen.  The structured path
     names the array and carries the sweep histogram; the raising path
     turns the same message into [No_solution]. *)
  let spec = Cache_spec.create ~tech:t32 ~capacity_bytes:1024 () in
  let msg =
    "SRAM data array of 1024B 8-way cache: no valid organization in the \
     enumerated design space"
  in
  Solve_cache.clear ();
  (match Cache_model.solve_diag spec with
  | Ok _ -> Alcotest.fail "1 KB cache must not solve"
  | Error ds ->
      Alcotest.(check (list string)) "no_solution, then the sweep counts"
        [
          "error[solver/no_solution]: " ^ msg;
          "info[solver/sweep_counts]: 62720 candidates: 0 evaluated; \
           rejected: geometry 62720, page 0, area-pruned 0, bound-pruned 0, \
           nonviable 0, nonfinite 0, raised 0";
        ]
        (List.map Cacti_util.Diag.to_string ds));
  Alcotest.check_raises "solve raises No_solution" (Optimizer.No_solution msg)
    (fun () -> ignore (Cache_model.solve spec));
  Alcotest.(check int) "failed solves are not memoized" 0 (Solve_cache.size ());
  Solve_cache.clear ()

(* --- diagnostics, validation results, fault containment ------------- *)

let test_min_by_rejects_nan () =
  (* A NaN metric must stop the selection loudly: under [<] it would
     compare false against everything and silently drop out of (or win)
     the argmin depending on its position. *)
  let spec =
    Array_spec.create ~ram:Cacti_tech.Cell.Sram ~tech:t32 ~n_rows:512
      ~row_bits:2048 ~output_bits:256 ()
  in
  let sw = Bank.enumerate_soa ~max_ndwl:8 ~max_ndbl:8 spec in
  let soa = sw.Bank.sw_soa in
  let rec first_ok i =
    if Bytes.get soa.Soa_kernel.status i = Soa_kernel.st_ok then i
    else first_ok (i + 1)
  in
  (Soa_kernel.col_area soa).{first_ok 0} <- Float.nan;
  Alcotest.check_raises "NaN key is loud"
    (Invalid_argument "Optimizer.min_by: NaN key") (fun () ->
      ignore (Optimizer.select_soa_result ~params:Opt_params.default soa))

let test_validate_results () =
  (match
     Cache_spec.create_result ~tech:t32 ~capacity_bytes:(-4096)
       ~block_bytes:48 ()
   with
  | Ok _ -> Alcotest.fail "invalid cache spec accepted"
  | Error ds ->
      let reasons = List.map (fun d -> d.Cacti_util.Diag.reason) ds in
      Alcotest.(check bool) "collects both failures" true
        (List.mem "non_positive" reasons && List.mem "non_pow2_block" reasons));
  (* Non-power-of-two associativity is a feature (the study's 12/18/24-way
     configurations), not an error. *)
  (match
     Cache_spec.create_result ~tech:t32
       ~capacity_bytes:(12 * 64 * 1024)
       ~assoc:12 ()
   with
  | Ok _ -> ()
  | Error ds -> Alcotest.fail ("12-way rejected: " ^ Cacti_util.Diag.render ds));
  (match
     Mainmem.create_result ~tech:t32 ~ram:Cacti_tech.Cell.Sram
       ~capacity_bits:(1024 * 1024 * 1024) ()
   with
  | Ok _ -> Alcotest.fail "SRAM main memory accepted"
  | Error ds ->
      Alcotest.(check bool) "not_dram reported" true
        (List.exists (fun d -> d.Cacti_util.Diag.reason = "not_dram") ds));
  let bad_params =
    { Opt_params.default with
      Opt_params.weights =
        { Opt_params.w_dynamic = -1.; w_leakage = 1.; w_cycle = 1.;
          w_interleave = 1. } }
  in
  match Opt_params.validate bad_params with
  | Ok _ -> Alcotest.fail "negative weight accepted"
  | Error ds ->
      Alcotest.(check bool) "negative_weight reported" true
        (List.exists
           (fun d -> d.Cacti_util.Diag.reason = "negative_weight")
           ds)

let counts_partition (c : Cacti_util.Diag.counts) =
  c.Cacti_util.Diag.evaluated + c.Cacti_util.Diag.geometry_rejected
  + c.Cacti_util.Diag.page_rejected + c.Cacti_util.Diag.area_pruned
  + c.Cacti_util.Diag.bound_pruned + c.Cacti_util.Diag.nonviable
  + c.Cacti_util.Diag.nonfinite + c.Cacti_util.Diag.raised

let test_solve_diag_summary () =
  Solve_cache.clear ();
  let spec = Cache_spec.create ~tech:t32 ~capacity_bytes:(64 * 1024) () in
  (match Cache_model.solve_diag spec with
  | Error ds -> Alcotest.fail (Cacti_util.Diag.render ds)
  | Ok (c, s) ->
      Alcotest.(check bool) "solution matches raising path" true
        (c.Cache_model.t_access = (Cache_model.solve spec).Cache_model.t_access);
      let sw = s.Cacti_util.Diag.sweeps in
      Alcotest.(check int) "histogram partitions the candidates"
        sw.Cacti_util.Diag.candidates (counts_partition sw);
      Alcotest.(check bool) "something was evaluated" true
        (sw.Cacti_util.Diag.evaluated > 0);
      Alcotest.(check int) "no faults" 0
        (sw.Cacti_util.Diag.nonfinite + sw.Cacti_util.Diag.raised));
  (* Second solve: both arrays come from the memo. *)
  (match Cache_model.solve_diag spec with
  | Error ds -> Alcotest.fail (Cacti_util.Diag.render ds)
  | Ok (_, s) ->
      Alcotest.(check int) "data+tag cache hits" 2 s.Cacti_util.Diag.cache_hits);
  (* An invalid spec surfaces as a structured Error, not an exception. *)
  (match
     Cache_model.solve_diag
       { spec with Cache_spec.block_bytes = 48; capacity_bytes = 48 * 8 * 16 }
   with
  | Error (d :: _) ->
      Alcotest.(check string) "reason" "non_pow2_block"
        d.Cacti_util.Diag.reason
  | Error [] -> Alcotest.fail "empty diagnostics"
  | Ok _ -> Alcotest.fail "invalid spec solved");
  Solve_cache.clear ()

let test_fault_injection_containment () =
  let spec = Cache_spec.create ~tech:t32 ~capacity_bytes:(256 * 1024) () in
  Fun.protect
    ~finally:(fun () ->
      Bank.set_fault_hook None;
      Solve_cache.clear ())
    (fun () ->
      (* Poison screened candidate 0 with NaN and candidate 1 with an
         exception, in both the data and the tag sweep. *)
      Bank.set_fault_hook
        (Some
           (fun i ->
             if i = 0 then Some Bank.Fault_nan
             else if i = 1 then Some Bank.Fault_exn
             else None));
      Solve_cache.clear ();
      let r1 = Cache_model.solve_diag ~jobs:1 spec in
      Solve_cache.clear ();
      let r4 = Cache_model.solve_diag ~jobs:4 spec in
      match (r1, r4) with
      | Ok (a, s1), Ok (b, s4) ->
          Alcotest.(check (float 0.)) "same t_access under faults"
            a.Cache_model.t_access b.Cache_model.t_access;
          Alcotest.(check (float 0.)) "same area" a.Cache_model.area
            b.Cache_model.area;
          Alcotest.(check (float 0.)) "same e_read" a.Cache_model.e_read
            b.Cache_model.e_read;
          Alcotest.(check bool) "same data org" true
            (a.Cache_model.data.Bank.org = b.Cache_model.data.Bank.org);
          (* Exactly the injected faults, at any worker count: one NaN and
             one exception per sweep, two sweeps (data + tag). *)
          List.iter
            (fun (name, s) ->
              let sw = s.Cacti_util.Diag.sweeps in
              Alcotest.(check int) (name ^ " nonfinite") 2
                sw.Cacti_util.Diag.nonfinite;
              Alcotest.(check int) (name ^ " raised") 2
                sw.Cacti_util.Diag.raised;
              Alcotest.(check int) (name ^ " partition")
                sw.Cacti_util.Diag.candidates (counts_partition sw))
            [ ("jobs=1", s1); ("jobs=4", s4) ]
      | Error ds, _ | _, Error ds ->
          Alcotest.fail (Cacti_util.Diag.render ds))

let test_strict_mode_reraises () =
  let spec = Cache_spec.create ~tech:t32 ~capacity_bytes:(64 * 1024) () in
  Fun.protect
    ~finally:(fun () ->
      Bank.set_fault_hook None;
      Solve_cache.clear ())
    (fun () ->
      Bank.set_fault_hook (Some (fun i -> if i = 0 then Some Bank.Fault_exn else None));
      Solve_cache.clear ();
      Alcotest.(check bool) "strict lets the injected exception out" true
        (try
           ignore (Cache_model.solve ~jobs:1 ~strict:true spec);
           false
         with Failure _ -> true);
      Bank.set_fault_hook (Some (fun i -> if i = 0 then Some Bank.Fault_nan else None));
      Solve_cache.clear ();
      Alcotest.(check bool) "strict surfaces NaN as Non_finite" true
        (try
           ignore (Cache_model.solve ~jobs:1 ~strict:true spec);
           false
         with Cacti_util.Floatx.Non_finite _ -> true))

let test_shared_stage_fault_per_candidate () =
  (* The sweep resolves a mat base once per run of candidates sharing a
     geometry record; a failure there must still count once per candidate
     that evaluates.  A zero-row geometry makes the predecode half raise
     (no select lines); three candidates share it, then one valid
     candidate follows. *)
  let spec =
    Array_spec.create ~ram:Cacti_tech.Cell.Sram ~tech:t32 ~n_rows:256
      ~row_bits:2048 ~output_bits:512 ()
  in
  let org_ok, g_ok =
    match Mat.screen ~max_ndwl:4 ~max_ndbl:4 ~spec () with
    | first :: _, _, _, _ -> first
    | [], _, _, _ -> Alcotest.fail "no survivor"
  in
  let g0 = { g_ok with Mat.g_rows_sub = 0 } in
  let bad ns = ({ org_ok with Org.ndsam_lev1 = ns }, g0) in
  let survivors = [ bad 1; bad 2; bad 4; (org_ok, g_ok) ] in
  let screened = (survivors, 4, 0, 0) in
  Fun.protect ~finally:Bank.reset_stage_memo @@ fun () ->
  List.iter
    (fun jobs ->
      let pool = Cacti_util.Pool.create ~jobs () in
      let banks, c = Bank.enumerate_counts ~pool ~screened spec in
      let name what = Printf.sprintf "jobs %d: %s" jobs what in
      Alcotest.(check int) (name "raised per candidate") 3
        c.Cacti_util.Diag.raised;
      Alcotest.(check int) (name "the valid one evaluates") 1
        c.Cacti_util.Diag.evaluated;
      Alcotest.(check int) (name "one bank") 1 (List.length banks))
    [ 1; 2 ];
  Alcotest.(check bool) "strict lets it out" true
    (match Bank.enumerate_counts ~strict:true ~screened spec with
    | _ -> false
    | exception Assert_failure _ -> true)

(* --- staged solver: mat re-derivation and branch-and-bound ----------- *)

(* Whether a selected bank is the naive reference solver's pick over its
   own spec's design space (the spec already carries the repeater-penalty
   parameter). *)
let same_as_oracle ?max_ndwl ?max_ndbl ~params (b : Bank.t) =
  compare b
    (Oracle.Solver_naive.select_bank ?max_ndwl ?max_ndbl ~params b.Bank.spec)
  = 0

let test_bench_batch_oracle () =
  (* The 7-solve batch of bench/solve_bench.ml, solved on shared tables as
     the bench and the service do (each solve reuses the stage memo and
     screen contexts the previous ones filled): every selected
     bank — data and tag of six caches at the 64x64 grid, the main-memory
     bank at 128x256 — must be the naive reference's pick. *)
  let t45 = Cacti_tech.Technology.at_nm 45. in
  let caches =
    [
      Cache_spec.create ~tech:t32 ~capacity_bytes:(32 * 1024) ~assoc:4 ();
      Cache_spec.create ~tech:t32 ~capacity_bytes:(1024 * 1024) ~assoc:8 ();
      Cache_spec.create ~tech:t32 ~capacity_bytes:(8 * 1024 * 1024) ~assoc:16
        ();
      Cache_spec.create ~tech:t32 ~capacity_bytes:(8 * 1024 * 1024) ~assoc:16
        ~ram:Cacti_tech.Cell.Lp_dram ();
      Cache_spec.create ~tech:t32 ~capacity_bytes:(8 * 1024 * 1024) ~assoc:16
        ~ram:Cacti_tech.Cell.Comm_dram ();
      Cache_spec.create ~tech:t45 ~capacity_bytes:(512 * 1024) ~assoc:8 ();
    ]
  in
  let chip =
    Mainmem.create ~tech:(Cacti_tech.Technology.at_nm 78.)
      ~capacity_bits:(1024 * 1024 * 1024 * 8)
      ()
  in
  Fun.protect ~finally:Solve_cache.clear @@ fun () ->
  Solve_cache.clear ();
  List.iter
    (fun spec ->
      match Cache_model.solve_diag spec with
      | Error ds -> Alcotest.fail (Cacti_util.Diag.render ds)
      | Ok (c, _) ->
          let name part =
            Printf.sprintf "%dB %s %s = oracle" spec.Cache_spec.capacity_bytes
              (Cacti_tech.Cell.ram_kind_to_string spec.Cache_spec.ram)
              part
          in
          let params = Opt_params.default in
          Alcotest.(check bool) (name "data") true
            (same_as_oracle ~params c.Cache_model.data);
          Alcotest.(check bool) (name "tag") true
            (same_as_oracle ~params c.Cache_model.tag))
    caches;
  match Mainmem.solve_diag chip with
  | Error ds -> Alcotest.fail (Cacti_util.Diag.render ds)
  | Ok (m, _) ->
      Alcotest.(check bool) "main-memory bank = oracle" true
        (same_as_oracle ~max_ndwl:128 ~max_ndbl:256
           ~params:Opt_params.area_optimal m.Mainmem.bank)

(* The branch-and-bound policy the staged selection path uses for the
   given optimizer parameters (mirrors Solve_cache's derivation). *)
let policy_of (p : Opt_params.t) =
  let w = p.Opt_params.weights in
  {
    Bank.acctime_pct = p.Opt_params.max_acctime_pct;
    energy_only =
      w.Opt_params.w_dynamic > 0. && w.Opt_params.w_leakage = 0.
      && w.Opt_params.w_cycle = 0. && w.Opt_params.w_interleave = 0.;
  }

(* --- the grouped sweep = per-candidate one-piece evaluation ---------- *)

(* The bench batch of [test_bench_batch_oracle] as the array sweeps the
   solver runs: (name, array spec, grid bounds, optimizer parameters). *)
let bench_batch_arrays () =
  let t45 = Cacti_tech.Technology.at_nm 45. in
  let params = Opt_params.default in
  let cache name spec =
    let c = Cache_model.solve spec in
    [
      (name ^ " data", c.Cache_model.data.Bank.spec, 64, 64, params);
      (name ^ " tag", c.Cache_model.tag.Bank.spec, 64, 64, params);
    ]
  in
  let mib n = n * 1024 * 1024 in
  let m =
    Mainmem.solve
      (Mainmem.create ~tech:(Cacti_tech.Technology.at_nm 78.)
         ~capacity_bits:(1024 * 1024 * 1024 * 8)
         ())
  in
  List.concat
    [
      cache "32KB sram"
        (Cache_spec.create ~tech:t32 ~capacity_bytes:(32 * 1024) ~assoc:4 ());
      cache "1MB sram"
        (Cache_spec.create ~tech:t32 ~capacity_bytes:(mib 1) ~assoc:8 ());
      cache "8MB sram"
        (Cache_spec.create ~tech:t32 ~capacity_bytes:(mib 8) ~assoc:16 ());
      cache "8MB lp-dram"
        (Cache_spec.create ~tech:t32 ~capacity_bytes:(mib 8) ~assoc:16
           ~ram:Cacti_tech.Cell.Lp_dram ());
      cache "8MB comm-dram"
        (Cache_spec.create ~tech:t32 ~capacity_bytes:(mib 8) ~assoc:16
           ~ram:Cacti_tech.Cell.Comm_dram ());
      cache "512KB sram 45nm"
        (Cache_spec.create ~tech:t45 ~capacity_bytes:(512 * 1024) ~assoc:8 ());
      [
        ( "1Gb main memory",
          m.Mainmem.bank.Bank.spec,
          128,
          256,
          Opt_params.area_optimal );
      ];
    ]

let metric_bits (m : Soa_kernel.metrics) =
  List.map Int64.bits_of_float
    Soa_kernel.
      [
        m.m_width; m.m_height; m.m_area; m.m_area_efficiency; m.m_t_access;
        m.m_t_random_cycle; m.m_t_interleave; m.m_e_read; m.m_e_write;
        m.m_e_activate; m.m_e_precharge; m.m_p_leakage; m.m_p_refresh;
        m.m_t_rcd; m.m_t_cas; m.m_t_ras; m.m_t_rp; m.m_t_rc; m.m_t_rrd;
      ]

(* Check a sweep against the per-candidate reference: every candidate's
   mat assembled by [Oracle.Mat_onepiece.eval] (its own subarray and
   one-piece decoder, no memo, no grouping) and put through the bank
   model.  An evaluated candidate's metric columns must equal the
   reference's bit for bit, and a nonviable one must be nonviable there.
   [exact] (a serial sweep) also replays the prune rule over the
   reference's own champion in enumeration order, so every status byte
   must match; with several domains the prune decisions depend on the
   evaluation order, so only evaluated candidates are compared. *)
let check_sweep_oracle ~name ~exact ?prune ?bound (sw : Bank.sweep) =
  let spec = sw.Bank.sw_spec and staged = sw.Bank.sw_staged in
  let soa = sw.Bank.sw_soa in
  let ch_area = ref Float.infinity
  and ch_time = ref Float.infinity
  and ch_energy = ref Float.infinity in
  let fail i what = Alcotest.failf "%s: candidate %d: %s" name i what in
  let n_checked = ref 0 in
  for i = 0 to soa.Soa_kernel.n - 1 do
    let org = soa.Soa_kernel.orgs.(i) and g = soa.Soa_kernel.geos.(i) in
    let st = Bytes.get soa.Soa_kernel.status i in
    let b_area = soa.Soa_kernel.b_area.{i}
    and b_time = soa.Soa_kernel.b_time.{i}
    and b_energy = soa.Soa_kernel.b_energy.{i} in
    let expected_prune =
      if not exact then None
      else if
        match prune with
        | Some pct -> b_area > !ch_area *. (1. +. pct)
        | None -> false
      then Some Soa_kernel.st_area_pruned
      else
        match bound with
        | Some bp
          when b_area > !ch_area
               && (b_time > !ch_time *. (1. +. bp.Bank.acctime_pct)
                  || bp.Bank.energy_only && b_time > !ch_time
                     && b_energy > !ch_energy) ->
            Some Soa_kernel.st_bound_pruned
        | _ -> None
    in
    match expected_prune with
    | Some want -> if st <> want then fail i "prune decision differs"
    | None when
        (not exact)
        && (st = Soa_kernel.st_area_pruned || st = Soa_kernel.st_bound_pruned)
      ->
        ()
    | None -> (
        match Oracle.Mat_onepiece.eval ~staged ~org g with
        | None ->
            if st <> Soa_kernel.st_nonviable then fail i "should be nonviable"
        | Some mat ->
            let m = Soa_kernel.metrics_of_mat ~staged ~spec ~org mat in
            if st <> Soa_kernel.st_ok then fail i "should have evaluated";
            incr n_checked;
            if metric_bits (Soa_kernel.get_metrics soa i) <> metric_bits m then
              fail i "metric columns differ from the reference";
            if m.Soa_kernel.m_area < !ch_area then begin
              ch_area := m.Soa_kernel.m_area;
              ch_time := m.Soa_kernel.m_t_access;
              ch_energy := m.Soa_kernel.m_e_read
            end)
  done;
  Alcotest.(check int)
    (name ^ ": every evaluated candidate checked")
    sw.Bank.sw_counts.Cacti_util.Diag.evaluated !n_checked;
  if !n_checked = 0 then Alcotest.failf "%s: nothing evaluated" name

let test_bench_batch_sweep_oracle () =
  (* Every sweep of the bench batch, as the solver runs it (pruned) at 1
     and 2 domains — with 2, the 64-candidate chunks are claimed by both
     domains, so runs of one geometry are split between them — plus
     unpruned at 2 domains, where every status byte is decided by the
     reference alone. *)
  Fun.protect ~finally:Solve_cache.clear @@ fun () ->
  let arrays = bench_batch_arrays () in
  Solve_cache.clear ();
  List.iter
    (fun jobs ->
      let pool = Cacti_util.Pool.create ~jobs () in
      List.iter
        (fun (name, spec, max_ndwl, max_ndbl, params) ->
          let prune = params.Opt_params.max_area_pct
          and bound = policy_of params in
          let sw =
            Bank.enumerate_soa ~pool ~prune ~bound ~max_ndwl ~max_ndbl spec
          in
          check_sweep_oracle
            ~name:(Printf.sprintf "%s, jobs %d" name jobs)
            ~exact:(jobs = 1) ~prune ~bound sw;
          if jobs > 1 then
            check_sweep_oracle
              ~name:(Printf.sprintf "%s, jobs %d, unpruned" name jobs)
              ~exact:true
              (Bank.enumerate_soa ~pool ~max_ndwl ~max_ndbl spec))
        arrays)
    [ 1; 2 ]

let test_materialize_cold_stage_memo () =
  (* The sweep keeps metric columns, not mats: [Bank.sweep_bank]
     re-derives a candidate's mat through the stage memo.  With the memo
     emptied between the sweep and the re-derivation, every evaluated
     candidate must still materialize to exactly the record a fresh
     [Bank.evaluate] builds without any memo. *)
  let check name ?max_ndwl ?max_ndbl ?prune ?bound (spec : Array_spec.t) =
    let sw = Bank.enumerate_soa ?max_ndwl ?max_ndbl ?prune ?bound spec in
    Bank.reset_stage_memo ();
    let soa = sw.Bank.sw_soa in
    let n_ok = ref 0 in
    for i = 0 to soa.Soa_kernel.n - 1 do
      if Bytes.get soa.Soa_kernel.status i = Soa_kernel.st_ok then begin
        incr n_ok;
        let org = soa.Soa_kernel.orgs.(i) in
        match Bank.evaluate ~spec ~org with
        | None -> Alcotest.failf "%s: candidate %d does not evaluate" name i
        | Some b ->
            if compare (Bank.sweep_bank sw i) b <> 0 then
              Alcotest.failf "%s: candidate %d differs from evaluate" name i
      end
    done;
    if !n_ok = 0 then Alcotest.failf "%s: nothing evaluated" name;
    Alcotest.(check int)
      (name ^ ": every evaluated candidate checked")
      sw.Bank.sw_counts.Cacti_util.Diag.evaluated !n_ok
  in
  let data_spec cache =
    (Cache_model.solve cache).Cache_model.data.Bank.spec
  in
  check "64 KB SRAM data array, 16x16" ~max_ndwl:16 ~max_ndbl:16
    (data_spec (Cache_spec.create ~tech:t32 ~capacity_bytes:(64 * 1024) ()));
  let params = Opt_params.default in
  check "8 MB LP-DRAM data array, pruned"
    ~prune:params.Opt_params.max_area_pct ~bound:(policy_of params)
    (data_spec
       (Cache_spec.create ~tech:t32 ~capacity_bytes:(8 * 1024 * 1024)
          ~assoc:16 ~ram:Cacti_tech.Cell.Lp_dram ()))

let test_prune_identity_and_soundness () =
  (* Three views of the same design space must agree:
     (1) the naive reference's full, unpruned enumeration and its pick;
     (2) the pruned sweep (area + branch-and-bound) and the fused
         selection over it, which must crown the same bank;
     (3) the pruned code path with every candidate force-evaluated via the
         fault hook, which must evaluate exactly the reference's
         population — the would-have-been-pruned candidates included. *)
  let check name ?(expect_fired = false) params s =
    let pol = policy_of params in
    let full = Oracle.Solver_naive.enumerate s in
    let pruned =
      Bank.enumerate_soa ~prune:params.Opt_params.max_area_pct ~bound:pol s
    in
    let c = pruned.Bank.sw_counts in
    let forced =
      Fun.protect
        ~finally:(fun () -> Bank.set_fault_hook None)
        (fun () ->
          Bank.set_fault_hook (Some (fun _ -> Some Bank.Fault_force));
          Bank.enumerate ~prune:params.Opt_params.max_area_pct ~bound:pol s)
    in
    if expect_fired then
      Alcotest.(check bool) (name ^ ": bound prune fired") true
        (c.Cacti_util.Diag.bound_pruned > 0);
    Alcotest.(check bool) (name ^ ": forced run = unpruned oracle") true
      (compare full forced = 0);
    let w_full = Oracle.Solver_naive.select ~params full in
    Alcotest.(check bool) (name ^ ": pruned winner = oracle winner") true
      (compare w_full (select_sweep ~params pruned) = 0)
  in
  let sram =
    Array_spec.create ~ram:Cacti_tech.Cell.Sram ~tech:t32 ~n_rows:2048
      ~row_bits:4096 ~output_bits:512 ()
  in
  check "default weights" Opt_params.default sram;
  (* Dynamic-energy-only weights exercise the [energy_only] prune rule. *)
  let energy_params =
    {
      Opt_params.default with
      Opt_params.weights =
        { Opt_params.w_dynamic = 1.; w_leakage = 0.; w_cycle = 0.;
          w_interleave = 0. };
    }
  in
  check "energy-only weights" energy_params sram;
  (* DRAM arrays sense every active column, so the sense-amp area term
     gives the bound real discriminating power there — the prune must
     actually fire, and fire soundly. *)
  check "lp-dram" ~expect_fired:true Opt_params.default
    (Array_spec.create ~ram:Cacti_tech.Cell.Lp_dram ~tech:t32 ~n_rows:8192
       ~row_bits:8192 ~output_bits:512 ());
  check "comm-dram" Opt_params.default
    (Array_spec.create ~ram:Cacti_tech.Cell.Comm_dram ~tech:t32 ~n_rows:8192
       ~row_bits:8192 ~output_bits:64 ())

let prop_solve_oracle =
  (* Random valid cache specs, solved one after another on shared tables:
     the data and tag banks the memoized staged path selects must be the
     naive reference's picks over the same array specs. *)
  QCheck.Test.make ~name:"random solves: data and tag = oracle" ~count:6
    QCheck.(
      triple (int_range 12 18) (oneofl [ 32; 64 ]) (oneofl [ 1; 2; 4; 8 ]))
    (fun (log2_cap, block, assoc) ->
      let spec =
        Cache_spec.create ~tech:t32 ~capacity_bytes:(1 lsl log2_cap)
          ~block_bytes:block ~assoc ()
      in
      let params = Opt_params.default in
      match Cache_model.solve_diag spec with
      | Ok (c, _) ->
          same_as_oracle ~params c.Cache_model.data
          && same_as_oracle ~params c.Cache_model.tag
      | Error ds ->
          (* A structured no-solution outcome (e.g. a degenerate tag array
             with too few sets) is legitimate. *)
          List.map (fun d -> d.Cacti_util.Diag.reason) ds
          = [ "no_solution"; "sweep_counts" ])

let test_fused_selection_identity () =
  (* The fused columnar argmin must crown exactly the candidate the naive
     reference's list selection picks — area and access-time filters,
     per-metric normalization and the weighted objective included. *)
  let check name params s =
    let sw = Bank.enumerate_soa ~max_ndwl:16 ~max_ndbl:16 s in
    let banks = Oracle.Solver_naive.enumerate ~max_ndwl:16 ~max_ndbl:16 s in
    match
      ( Optimizer.select_soa_result ~params sw.Bank.sw_soa,
        Oracle.Solver_naive.select_result ~params banks )
    with
    | Ok i, Ok w ->
        Alcotest.(check bool) (name ^ ": fused winner = list winner") true
          (compare (Bank.sweep_bank sw i) w = 0)
    | Error a, Error b -> Alcotest.(check string) (name ^ ": same error") b a
    | Ok _, Error e | Error e, Ok _ ->
        Alcotest.failf "%s: fused and list selection disagree: %s" name e
  in
  let sram =
    Array_spec.create ~ram:Cacti_tech.Cell.Sram ~tech:t32 ~n_rows:2048
      ~row_bits:4096 ~output_bits:512 ()
  in
  check "default weights" Opt_params.default sram;
  check "energy-only weights"
    {
      Opt_params.default with
      Opt_params.weights =
        { Opt_params.w_dynamic = 1.; w_leakage = 0.; w_cycle = 0.;
          w_interleave = 0. };
    }
    sram;
  check "comm-dram" Opt_params.default
    (Array_spec.create ~ram:Cacti_tech.Cell.Comm_dram ~tech:t32 ~n_rows:8192
       ~row_bits:8192 ~output_bits:64 ())

let test_incremental_resolve_identity () =
  (* Perturbing a solved spec along one axis must answer from the screen
     memo — capacity changes only the row count (the prebuilt tree is
     re-instantiated), a technology change leaves the arithmetic screen
     untouched (survivors reused outright) — and each warm re-solve must
     be bit-identical to a cold start. *)
  let t45 = Cacti_tech.Technology.at_nm 45. in
  let base =
    Cache_spec.create ~tech:t32 ~capacity_bytes:(1024 * 1024) ~assoc:8 ()
  in
  let size_perturbed =
    Cache_spec.create ~tech:t32 ~capacity_bytes:(2 * 1024 * 1024) ~assoc:8 ()
  in
  let tech_perturbed =
    Cache_spec.create ~tech:t45 ~capacity_bytes:(1024 * 1024) ~assoc:8 ()
  in
  let solve spec =
    match Cache_model.solve_diag spec with
    | Ok (c, _) -> c
    | Error ds -> Alcotest.failf "solve failed: %s" (Cacti_util.Diag.render ds)
  in
  Fun.protect
    ~finally:(fun () -> Solve_cache.clear ())
    (fun () ->
      Solve_cache.clear ();
      ignore (solve base);
      let i0 = Solve_cache.incremental_stats () in
      let warm_size = solve size_perturbed in
      let i1 = Solve_cache.incremental_stats () in
      let warm_tech = solve tech_perturbed in
      let i2 = Solve_cache.incremental_stats () in
      Alcotest.(check bool) "capacity perturbation re-instantiates the tree"
        true
        (i1.Solve_cache.rows_hits > i0.Solve_cache.rows_hits);
      Alcotest.(check bool) "tech perturbation reuses survivors outright" true
        (i2.Solve_cache.full_hits > i1.Solve_cache.full_hits);
      Solve_cache.clear ();
      let cold_size = solve size_perturbed in
      Solve_cache.clear ();
      let cold_tech = solve tech_perturbed in
      Alcotest.(check bool) "size-perturbed warm = cold" true
        (compare warm_size cold_size = 0);
      Alcotest.(check bool) "tech-perturbed warm = cold" true
        (compare warm_tech cold_tech = 0))

let test_kernel_forced_invalidation () =
  (* [Fault_force] through the full staged solve: every candidate the
     area/bound prunes skip is force-evaluated instead, and none of them
     may displace the winner — the prunes invalidated no viable design.
     The 8 MB LP-DRAM cache is a spec whose sweep does prune; each solve
     starts from empty tables so neither is a memo hit. *)
  let spec =
    Cache_spec.create ~tech:t32 ~capacity_bytes:(8 * 1024 * 1024) ~assoc:16
      ~ram:Cacti_tech.Cell.Lp_dram ()
  in
  let solve () =
    Solve_cache.clear ();
    match Cache_model.solve_diag spec with
    | Ok (c, s) -> (c, s.Cacti_util.Diag.sweeps)
    | Error ds -> Alcotest.failf "solve failed: %s" (Cacti_util.Diag.render ds)
  in
  let pruned (k : Cacti_util.Diag.counts) =
    k.Cacti_util.Diag.area_pruned + k.Cacti_util.Diag.bound_pruned
  in
  Fun.protect ~finally:Solve_cache.clear @@ fun () ->
  let normal, kn = solve () in
  let forced, kf =
    Fun.protect
      ~finally:(fun () -> Bank.set_fault_hook None)
      (fun () ->
        Bank.set_fault_hook (Some (fun _ -> Some Bank.Fault_force));
        solve ())
  in
  Alcotest.(check bool) "normal solve pruned candidates" true (pruned kn > 0);
  Alcotest.(check int) "forced solve pruned none" 0 (pruned kf);
  Alcotest.(check int) "every pruned candidate was evaluated instead"
    (kn.Cacti_util.Diag.evaluated + pruned kn)
    kf.Cacti_util.Diag.evaluated;
  Alcotest.(check bool) "forced evaluation crowns the same design" true
    (compare normal forced = 0)

(* Randomized robustness: no input, valid or not, may escape as a raw
   exception — and valid ones must produce all-finite metrics. *)
let all_finite (c : Cache_model.t) =
  List.for_all Float.is_finite
    [
      c.Cache_model.t_access; c.Cache_model.t_random_cycle;
      c.Cache_model.t_interleave; c.Cache_model.e_read; c.Cache_model.e_write;
      c.Cache_model.p_leakage; c.Cache_model.p_refresh; c.Cache_model.area;
    ]

let prop_cache_spec_structured =
  QCheck.Test.make ~name:"random cache specs: Ok or structured Error"
    ~count:200
    QCheck.(
      quad
        (int_range (-1024) (4 * 1024 * 1024))
        (int_range (-8) 512) (int_range (-2) 40) (int_range (-2) 8))
    (fun (cap, block, assoc, banks) ->
      match
        Cache_spec.create_result ~tech:t32 ~capacity_bytes:cap
          ~block_bytes:block ~assoc ~n_banks:banks ()
      with
      | Ok _ -> true
      | Error ds -> ds <> [])

let prop_mainmem_spec_structured =
  QCheck.Test.make ~name:"random mainmem chips: Ok or structured Error"
    ~count:200
    QCheck.(
      quad
        (int_range (-1) (2 * 1024 * 1024 * 1024))
        (int_range (-1) 64) (int_range (-1) 65536) (int_range (-1) 32))
    (fun (bits, banks, page, io) ->
      match
        Mainmem.create_result ~tech:t32 ~capacity_bits:bits ~n_banks:banks
          ~page_bits:page ~io_bits:io ()
      with
      | Ok _ -> true
      | Error ds -> ds <> [])

let prop_solve_diag_total =
  (* Full solves are expensive: a handful of small random-but-plausible
     specs, memoized across shrink attempts by Solve_cache. *)
  QCheck.Test.make ~name:"random solves: finite metrics or structured Error"
    ~count:8
    QCheck.(
      triple (int_range 10 16) (oneofl [ 16; 32; 64; 48; 0 ])
        (oneofl [ 1; 2; 4; 8; 12 ]))
    (fun (log2_cap, block, assoc) ->
      let spec =
        {
          Cache_spec.capacity_bytes = 1 lsl log2_cap;
          block_bytes = block;
          assoc;
          n_banks = 1;
          ram = Cacti_tech.Cell.Sram;
          tag_ram = Cacti_tech.Cell.Sram;
          access_mode = Cache_spec.Normal;
          phys_addr_bits = 42;
          status_bits = 2;
          sleep_tx = false;
          tech = t32;
        }
      in
      match Cache_model.solve_diag ~jobs:2 spec with
      | Ok (c, _) -> all_finite c
      | Error ds -> ds <> [])

(* The O(n log n) frontier must agree element-for-element with the original
   quadratic dominance filter, ties and duplicates included. *)
let test_pareto_matches_naive () =
  let spec =
    Array_spec.create ~ram:Cacti_tech.Cell.Sram ~tech:t32 ~n_rows:512
      ~row_bits:2048 ~output_bits:256 ()
  in
  let proto = List.hd (Bank.enumerate ~max_ndwl:4 ~max_ndbl:4 spec) in
  let rng = Cacti_util.Rng.create 0xC0FFEEL in
  (* Quantized coordinates force plenty of exact ties on each axis. *)
  let coord () = Float.round (Cacti_util.Rng.float rng 1.0 *. 16.) /. 16. in
  let fresh =
    List.init 400 (fun _ ->
        { proto with Bank.t_access = coord (); area = coord () })
  in
  (* Physically duplicated entries exercise the self-domination exclusion. *)
  let cands = fresh @ List.filteri (fun i _ -> i mod 7 = 0) fresh in
  let naive_dominated b =
    List.exists
      (fun o ->
        o != b
        && o.Bank.t_access <= b.Bank.t_access
        && o.Bank.area <= b.Bank.area
        && (o.Bank.t_access < b.Bank.t_access || o.Bank.area < b.Bank.area))
      cands
  in
  let expect = List.filter (fun b -> not (naive_dominated b)) cands in
  let got = Oracle.Pareto.pareto_access_area cands in
  Alcotest.(check int) "same frontier size" (List.length expect)
    (List.length got);
  List.iter2
    (fun a b -> Alcotest.(check bool) "same element, same order" true (a == b))
    expect got

let () =
  Alcotest.run "cacti"
    [
      ( "spec",
        [
          Alcotest.test_case "defaults" `Quick test_cache_spec_defaults;
          Alcotest.test_case "validation" `Quick test_cache_spec_validation;
          Alcotest.test_case "tag ram default" `Quick test_cache_spec_tag_ram_follows_data;
        ] );
      ( "cache solver",
        [
          Alcotest.test_case "L1 plausible" `Slow test_solve_l1_plausible;
          Alcotest.test_case "L2 vs L1" `Slow test_l2_slower_bigger_than_l1;
          Alcotest.test_case "sequential mode" `Slow test_sequential_mode_slower;
          Alcotest.test_case "fast mode" `Slow test_fast_mode_ships_all_ways;
          Alcotest.test_case "solve space" `Slow test_solve_space_nonempty;
          Alcotest.test_case "all nodes solvable" `Slow test_all_nodes_solvable;
          Alcotest.test_case "roadmap scaling" `Slow test_scaling_improves_delay_and_energy;
          Alcotest.test_case "jobs determinism" `Slow test_jobs_determinism;
          Alcotest.test_case "solve cache hit" `Slow test_solve_cache_hit_same_value;
        ] );
      ( "optimizer",
        [
          Alcotest.test_case "staged filters" `Slow test_optimizer_staged_filters;
          Alcotest.test_case "weights steer" `Slow test_optimizer_weights_steer;
          Alcotest.test_case "pareto" `Quick test_pareto_frontier;
          Alcotest.test_case "pareto matches naive" `Slow test_pareto_matches_naive;
          Alcotest.test_case "empty candidates" `Quick test_select_empty_is_typed_error;
        ] );
      ( "plain ram",
        [
          Alcotest.test_case "sram macro" `Slow test_ram_model;
          Alcotest.test_case "lp-dram macro" `Slow test_ram_model_dram_refresh;
        ] );
      ( "main memory",
        [
          Alcotest.test_case "timing ordering" `Slow test_mainmem_timing_order;
          Alcotest.test_case "Micron band" `Slow test_mainmem_vs_micron_band;
          Alcotest.test_case "page constraint" `Slow test_mainmem_page_size_respected;
          Alcotest.test_case "burst energy" `Slow test_mainmem_burst_energy_scales;
          Alcotest.test_case "validation" `Quick test_mainmem_create_validation;
        ] );
      ( "staged solver",
        [
          Alcotest.test_case "materialize on cold memo = evaluate" `Slow
            test_materialize_cold_stage_memo;
          Alcotest.test_case "bench batch sweeps = one-piece mats" `Slow
            test_bench_batch_sweep_oracle;
          Alcotest.test_case "bench batch = oracle" `Slow
            test_bench_batch_oracle;
          Alcotest.test_case "prune identity + soundness" `Slow
            test_prune_identity_and_soundness;
          Alcotest.test_case "fused selection identity" `Slow
            test_fused_selection_identity;
          Alcotest.test_case "incremental re-solve identity" `Slow
            test_incremental_resolve_identity;
          Alcotest.test_case "kernel forced invalidation" `Slow
            test_kernel_forced_invalidation;
          QCheck_alcotest.to_alcotest prop_solve_oracle;
        ] );
      ( "diagnostics",
        [
          Alcotest.test_case "min_by rejects NaN" `Quick test_min_by_rejects_nan;
          Alcotest.test_case "validate results" `Quick test_validate_results;
          Alcotest.test_case "solve_diag summary" `Slow test_solve_diag_summary;
          Alcotest.test_case "fault injection containment" `Slow
            test_fault_injection_containment;
          Alcotest.test_case "strict re-raises" `Slow test_strict_mode_reraises;
          Alcotest.test_case "shared-stage fault per candidate" `Quick
            test_shared_stage_fault_per_candidate;
          QCheck_alcotest.to_alcotest prop_cache_spec_structured;
          QCheck_alcotest.to_alcotest prop_mainmem_spec_structured;
          QCheck_alcotest.to_alcotest prop_solve_diag_total;
        ] );
    ]
