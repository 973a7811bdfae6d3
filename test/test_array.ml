open Cacti_tech
open Cacti_array

let t32 = Technology.at_nm 32.

let spec ?(ram = Cell.Sram) ?(sleep = false) ?page_bits ~rows ~row_bits ~out () =
  Array_spec.create ?page_bits ~sleep_tx:sleep ~ram ~tech:t32 ~n_rows:rows
    ~row_bits ~output_bits:out ()

let small_sram = spec ~rows:256 ~row_bits:2048 ~out:512 ()

let org ~ndwl ~ndbl ?(nspd = 1.) ?(mux = 1) ?(ns1 = 1) ?(ns2 = 1) () =
  {
    Org.ndwl;
    ndbl;
    nspd;
    deg_bl_mux = mux;
    ndsam_lev1 = ns1;
    ndsam_lev2 = ns2;
  }

let test_spec_validation () =
  Alcotest.check_raises "zero rows"
    (Invalid_argument "Array_spec.create: row count 0 must be positive")
    (fun () -> ignore (spec ~rows:0 ~row_bits:64 ~out:64 ()));
  (match Array_spec.validate { small_sram with Array_spec.n_rows = -1;
                               row_bits = 0 } with
  | Ok _ -> Alcotest.fail "invalid geometry accepted"
  | Error ds ->
      Alcotest.(check int) "both geometry failures collected" 2
        (List.length ds));
  Alcotest.(check bool) "output wider than array rejected" true
    (try ignore (spec ~rows:1 ~row_bits:64 ~out:128 ()); false
     with Invalid_argument _ -> true)

let test_org_helpers () =
  let o = org ~ndwl:8 ~ndbl:4 () in
  Alcotest.(check int) "mats_x" 4 (Org.mats_x o);
  Alcotest.(check int) "mats_y" 2 (Org.mats_y o);
  Alcotest.(check int) "n_mats" 8 (Org.n_mats o)

let test_candidates_dram_mux_fixed () =
  let cands = Org.candidates ~max_ndwl:4 ~max_ndbl:4 ~dram:true () in
  Alcotest.(check bool) "all deg_bl_mux = 1" true
    (List.for_all (fun o -> o.Org.deg_bl_mux = 1) cands);
  let sram_cands = Org.candidates ~max_ndwl:4 ~max_ndbl:4 ~dram:false () in
  Alcotest.(check bool) "sram explores muxes" true
    (List.exists (fun o -> o.Org.deg_bl_mux = 8) sram_cands)

let mat spec org =
  Mat.make_staged ~staged:(Mat.staged_of_spec spec) ~spec ~org ()

let test_mat_invalid_orgs_rejected () =
  (* 256 rows cannot be split into 64 bitline divisions of >=16 rows. *)
  Alcotest.(check bool) "too many ndbl" true
    (mat small_sram (org ~ndwl:1 ~ndbl:64 ()) = None);
  (* Output width must tile across mats. *)
  let bad = org ~ndwl:2 ~ndbl:2 ~ns1:16 ~ns2:16 () in
  Alcotest.(check bool) "mux mismatch rejected" true
    (mat small_sram bad = None)

let test_mat_valid () =
  match mat small_sram (org ~ndwl:2 ~ndbl:2 ~mux:4 ()) with
  | None -> Alcotest.fail "expected a valid mat"
  | Some m ->
      Alcotest.(check int) "rows" 128 m.Mat.subarray.Subarray.rows;
      Alcotest.(check int) "cols" 1024 m.Mat.subarray.Subarray.cols;
      Alcotest.(check int) "out bits" 512 m.Mat.out_bits;
      Alcotest.(check bool) "positive metrics" true
        (m.Mat.t_row_path > 0. && m.Mat.t_bitline > 0.
        && m.Mat.e_row_activate > 0. && m.Mat.leakage > 0.
        && m.Mat.area > 0.)

let test_dram_mat_has_restore () =
  let dspec = spec ~ram:Cell.Lp_dram ~rows:2048 ~row_bits:4096 ~out:512 () in
  match mat dspec (org ~ndwl:2 ~ndbl:8 ~ns1:2 ~ns2:4 ()) with
  | None -> Alcotest.fail "expected valid LP-DRAM mat"
  | Some m ->
      Alcotest.(check bool) "restore time set" true (m.Mat.t_restore > 0.);
      Alcotest.(check bool) "precharge set" true (m.Mat.t_precharge > 0.)

let enumerate s = Bank.enumerate ~max_ndwl:16 ~max_ndbl:16 s

let test_bank_counts_partition () =
  (* The rejection histogram must account for every candidate exactly once,
     and [evaluated] must equal the number of banks returned. *)
  let check_spec name s =
    let banks, c = Bank.enumerate_counts ~max_ndwl:16 ~max_ndbl:16 s in
    let open Cacti_util.Diag in
    Alcotest.(check int) (name ^ ": evaluated = returned banks")
      (List.length banks) c.evaluated;
    Alcotest.(check int) (name ^ ": histogram partitions candidates")
      c.candidates
      (c.evaluated + c.geometry_rejected + c.page_rejected + c.area_pruned
      + c.bound_pruned + c.nonviable + c.nonfinite + c.raised);
    Alcotest.(check int) (name ^ ": no faults on a clean sweep") 0
      (c.nonfinite + c.raised)
  in
  check_spec "sram" small_sram;
  check_spec "dram page-constrained"
    (spec ~ram:Cell.Comm_dram ~page_bits:8192 ~rows:4096 ~row_bits:8192
       ~out:64 ())

let test_bank_enumerate_nonempty () =
  let sols = enumerate small_sram in
  Alcotest.(check bool) "solutions exist" true (List.length sols > 10)

let test_bank_metrics_positive () =
  let sols = enumerate small_sram in
  List.iter
    (fun (b : Bank.t) ->
      Alcotest.(check bool) "access > 0" true (b.Bank.t_access > 0.);
      Alcotest.(check bool) "cycle > 0" true (b.Bank.t_random_cycle > 0.);
      Alcotest.(check bool) "energy > 0" true (b.Bank.e_read > 0.);
      Alcotest.(check bool) "leak > 0" true (b.Bank.p_leakage > 0.);
      Alcotest.(check bool) "area > 0" true (b.Bank.area > 0.);
      Alcotest.(check bool) "eff in (0,1)" true
        (b.Bank.area_efficiency > 0. && b.Bank.area_efficiency < 1.))
    sols

let test_bank_sram_no_refresh () =
  let sols = enumerate small_sram in
  List.iter
    (fun (b : Bank.t) ->
      Alcotest.(check (float 0.)) "no refresh" 0. b.Bank.p_refresh;
      Alcotest.(check bool) "no dram timing" true (b.Bank.dram = None))
    sols

let test_bank_dram_timing_invariants () =
  let dspec = spec ~ram:Cell.Comm_dram ~rows:8192 ~row_bits:8192 ~out:64 () in
  let sols = enumerate dspec in
  Alcotest.(check bool) "dram solutions exist" true (sols <> []);
  List.iter
    (fun (b : Bank.t) ->
      match b.Bank.dram with
      | None -> Alcotest.fail "dram timing missing"
      | Some d ->
          Alcotest.(check bool) "tRC = tRAS + tRP" true
            (Float.abs (d.Bank.t_rc -. (d.Bank.t_ras +. d.Bank.t_rp))
            < 1e-15);
          Alcotest.(check bool) "tRAS >= tRCD - htree" true
            (d.Bank.t_ras > 0.9 *. (d.Bank.t_rcd -. b.Bank.t_access));
          Alcotest.(check bool) "refresh power positive" true
            (b.Bank.p_refresh > 0.);
          Alcotest.(check bool) "tRRD <= tRC" true (d.Bank.t_rrd <= d.Bank.t_rc))
    sols

let test_page_constraint_filters () =
  let base = spec ~ram:Cell.Comm_dram ~rows:8192 ~row_bits:8192 ~out:64 in
  let unconstrained = enumerate (base ()) in
  let constrained = enumerate (base ~page_bits:8192 ()) in
  Alcotest.(check bool) "constraint prunes" true
    (List.length constrained < List.length unconstrained);
  List.iter
    (fun (b : Bank.t) ->
      let slice_sense = b.Bank.active_mats * b.Bank.mat.Mat.sensed_bits in
      Alcotest.(check int) "page = slice sense amps" 8192 slice_sense)
    constrained

let test_sleep_tx_reduces_leakage () =
  let awake = enumerate (spec ~rows:2048 ~row_bits:4096 ~out:512 ()) in
  let asleep =
    enumerate (spec ~sleep:true ~rows:2048 ~row_bits:4096 ~out:512 ())
  in
  let pick l = List.nth l (List.length l / 2) in
  let a = pick awake and s = pick asleep in
  Alcotest.(check bool) "same org" true (a.Bank.org = s.Bank.org);
  Alcotest.(check bool) "sleep leaks less" true
    (s.Bank.p_leakage < a.Bank.p_leakage)

let test_repeater_penalty_saves_energy () =
  let fast = spec ~rows:4096 ~row_bits:8192 ~out:512 () in
  let eco = { fast with Array_spec.max_repeater_delay_penalty = 0.4 } in
  let pick sols =
    List.fold_left
      (fun acc (b : Bank.t) -> if b.Bank.t_access < acc.Bank.t_access then b else acc)
      (List.hd sols) sols
  in
  let f = pick (enumerate fast) and e = pick (enumerate eco) in
  Alcotest.(check bool) "penalty never speeds up" true
    (e.Bank.t_access >= f.Bank.t_access *. 0.999)

let test_capacity_monotone_area () =
  let solve rows =
    let sols = enumerate (spec ~rows ~row_bits:4096 ~out:512 ()) in
    List.fold_left (fun acc (b : Bank.t) -> min acc b.Bank.area) Float.infinity
      sols
  in
  let a1 = solve 512 and a2 = solve 2048 and a3 = solve 8192 in
  Alcotest.(check bool) "4x capacity bigger area" true (a2 > a1 *. 2.);
  Alcotest.(check bool) "16x capacity bigger still" true (a3 > a2 *. 2.)

let test_dram_denser_than_sram () =
  let best_area ram =
    let sols = enumerate (spec ~ram ~rows:4096 ~row_bits:4096 ~out:64 ()) in
    List.fold_left (fun acc (b : Bank.t) -> min acc b.Bank.area) Float.infinity
      sols
  in
  let sram = best_area Cell.Sram in
  let lp = best_area Cell.Lp_dram in
  let comm = best_area Cell.Comm_dram in
  Alcotest.(check bool) "LP-DRAM denser than SRAM" true (lp < sram);
  Alcotest.(check bool) "COMM-DRAM densest" true (comm < lp)

let test_comm_lowest_leakage () =
  let best_leak ram =
    let sols = enumerate (spec ~ram ~rows:4096 ~row_bits:4096 ~out:64 ()) in
    List.fold_left (fun acc (b : Bank.t) -> min acc b.Bank.p_leakage)
      Float.infinity sols
  in
  Alcotest.(check bool) "COMM (LSTP periphery) leaks least" true
    (best_leak Cell.Comm_dram < 0.05 *. best_leak Cell.Sram)

let test_screen_matches_flat_classify () =
  (* The hierarchical screen must be indistinguishable from running
     [classify] over the flat grid: same survivors (same order, same
     geometry) and the same rejection histogram. *)
  let check name ?(max_ndwl = 16) ?(max_ndbl = 16) s =
    let dram = Cell.is_dram s.Array_spec.ram in
    let flat_geo = ref 0 and flat_page = ref 0 and flat_total = ref 0 in
    let flat =
      Org.candidates ~max_ndwl ~max_ndbl ~dram ()
      |> List.filter_map (fun org ->
             incr flat_total;
             match Mat.classify ~spec:s ~org with
             | Ok g -> Some (org, g)
             | Error `Page ->
                 incr flat_page;
                 None
             | Error `Geometry ->
                 incr flat_geo;
                 None)
    in
    let fast, n_total, n_geometry, n_page =
      Mat.screen ~max_ndwl ~max_ndbl ~spec:s ()
    in
    Alcotest.(check int) (name ^ ": total") !flat_total n_total;
    Alcotest.(check int) (name ^ ": geometry") !flat_geo n_geometry;
    Alcotest.(check int) (name ^ ": page") !flat_page n_page;
    Alcotest.(check int) (name ^ ": survivors") (List.length flat)
      (List.length fast);
    Alcotest.(check bool) (name ^ ": identical survivor list") true
      (flat = fast)
  in
  check "sram" small_sram;
  check "sram odd widths" (spec ~rows:768 ~row_bits:1536 ~out:96 ());
  check "lp-dram" (spec ~ram:Cell.Lp_dram ~rows:2048 ~row_bits:4096 ~out:512 ());
  check "page-constrained comm-dram"
    (spec ~ram:Cell.Comm_dram ~page_bits:8192 ~rows:4096 ~row_bits:8192
       ~out:64 ());
  check "mainmem-style grid" ~max_ndwl:32 ~max_ndbl:64
    (spec ~ram:Cell.Comm_dram ~page_bits:16384 ~rows:16384 ~row_bits:16384
       ~out:64 ())

let test_screen_tree_instantiation () =
  (* The screen tree factors everything but the row count out of the
     hierarchical screen: built once, it must instantiate at any row
     count to exactly what a fresh screen on the resized spec computes —
     that equivalence is what lets the incremental re-solve path reuse
     the tree across capacity perturbations. *)
  let base rows = spec ~rows ~row_bits:1536 ~out:96 () in
  let tree = Mat.screen_tree ~max_ndwl:16 ~max_ndbl:16 ~spec:(base 512) () in
  List.iter
    (fun rows ->
      let fresh = Mat.screen ~max_ndwl:16 ~max_ndbl:16 ~spec:(base rows) () in
      let inst = Mat.screen_of_tree tree ~n_rows:rows in
      Alcotest.(check bool)
        (Printf.sprintf "%d rows: instantiated tree = fresh screen" rows)
        true
        (compare fresh inst = 0))
    [ 128; 512; 768; 4096 ];
  (* Same factoring for a page-constrained DRAM grid. *)
  let dbase rows =
    spec ~ram:Cell.Comm_dram ~page_bits:8192 ~rows ~row_bits:8192 ~out:64 ()
  in
  let dtree = Mat.screen_tree ~max_ndwl:16 ~max_ndbl:16 ~spec:(dbase 4096) () in
  List.iter
    (fun rows ->
      let fresh = Mat.screen ~max_ndwl:16 ~max_ndbl:16 ~spec:(dbase rows) () in
      Alcotest.(check bool)
        (Printf.sprintf "dram %d rows: instantiated tree = fresh screen" rows)
        true
        (compare fresh (Mat.screen_of_tree dtree ~n_rows:rows) = 0))
    [ 2048; 8192 ]

let test_enumerate_oracle_identity () =
  (* The columnar sweep must be observationally indistinguishable from the
     naive per-candidate reference: same banks (same order), same
     rejection histogram.  [compare], not [=]: DRAM timing fields can
     hold NaN. *)
  let check name s =
    let fast = Bank.enumerate_counts ~max_ndwl:16 ~max_ndbl:16 s in
    let naive =
      Oracle.Solver_naive.enumerate_counts ~max_ndwl:16 ~max_ndbl:16 s
    in
    Alcotest.(check bool) (name ^ ": sweep = oracle") true
      (compare fast naive = 0)
  in
  check "sram" small_sram;
  check "lp-dram" (spec ~ram:Cell.Lp_dram ~rows:2048 ~row_bits:4096 ~out:512 ());
  check "page-constrained comm-dram"
    (spec ~ram:Cell.Comm_dram ~page_bits:8192 ~rows:4096 ~row_bits:8192
       ~out:64 ())

let prop_enumerate_oracle_identity =
  QCheck.Test.make ~name:"random specs: enumerate = oracle" ~count:10
    QCheck.(
      triple (int_range 8 13) (int_range 9 13)
        (oneofl [ Cell.Sram; Cell.Lp_dram; Cell.Comm_dram ]))
    (fun (log_rows, log_row_bits, ram) ->
      let row_bits = 1 lsl log_row_bits in
      let s =
        spec ~ram ~rows:(1 lsl log_rows) ~row_bits ~out:(min row_bits 64) ()
      in
      compare
        (Bank.enumerate_counts ~max_ndwl:8 ~max_ndbl:8 s)
        (Oracle.Solver_naive.enumerate_counts ~max_ndwl:8 ~max_ndbl:8 s)
      = 0)

let test_lower_bounds_admissible () =
  (* Every bound the sweep prunes on must sit at or below the metric the
     full evaluation reports — over every survivor of the grid, not just
     the winners.  Infinite slack computes the bound columns without
     letting them prune anything, so every candidate is checked. *)
  let check name s =
    let sw =
      Bank.enumerate_soa ~max_ndwl:16 ~max_ndbl:16 ~prune:Float.infinity
        ~bound:{ Bank.acctime_pct = Float.infinity; energy_only = false }
        s
    in
    let soa = sw.Bank.sw_soa and c = sw.Bank.sw_counts in
    Alcotest.(check int) (name ^ ": nothing pruned") 0
      (c.Cacti_util.Diag.area_pruned + c.Cacti_util.Diag.bound_pruned);
    let area = Soa_kernel.col_area soa
    and t_access = Soa_kernel.col_t_access soa
    and e_read = Soa_kernel.col_e_read soa in
    let n = ref 0 in
    for i = 0 to soa.Soa_kernel.n - 1 do
      if Bytes.get soa.Soa_kernel.status i = Soa_kernel.st_ok then begin
        incr n;
        let org = Org.to_string soa.Soa_kernel.orgs.(i) in
        let bound what b v =
          if not (b <= v) then
            Alcotest.failf "%s %s: %s bound %g > %g" name org what b v
        in
        bound "area" soa.Soa_kernel.b_area.{i} area.{i};
        bound "time" soa.Soa_kernel.b_time.{i} t_access.{i};
        bound "energy" soa.Soa_kernel.b_energy.{i} e_read.{i}
      end
    done;
    Alcotest.(check int) (name ^ ": every evaluated candidate checked")
      c.Cacti_util.Diag.evaluated !n;
    Alcotest.(check bool) (name ^ ": evaluated some") true (!n > 10)
  in
  check "sram" small_sram;
  check "comm-dram" (spec ~ram:Cell.Comm_dram ~rows:8192 ~row_bits:8192 ~out:64 ())

let test_staged_evaluate_identical () =
  let staged = Mat.staged_of_spec small_sram in
  let orgs =
    [ org ~ndwl:2 ~ndbl:2 ~mux:4 (); org ~ndwl:4 ~ndbl:2 ~mux:2 ~ns1:2 () ]
  in
  List.iter
    (fun o ->
      let fresh = mat small_sram o in
      let fast = Mat.make_staged ~staged ~spec:small_sram ~org:o () in
      (* [compare], not [=]: NaN-valued scratch fields (e.g. unbounded
         DRAM timings) are unequal to themselves under [=]. *)
      Alcotest.(check bool)
        ("staged = fresh for " ^ Org.to_string o)
        true
        (compare fresh fast = 0))
    orgs

let prop_subarray_geometry =
  QCheck.Test.make ~name:"subarray area = w x h" ~count:50
    QCheck.(pair (int_range 16 1024) (int_range 16 1024))
    (fun (rows, cols) ->
      let s = Subarray.make ~tech:t32 ~ram:Cell.Sram ~rows ~cols ~c_sense_input:2e-15 in
      Float.abs (Subarray.cell_area s -. (s.Subarray.width *. s.Subarray.height))
      < 1e-18)

(* --- finish (base ...) = the one-piece mat assembly, bit for bit ---- *)

(* Every field of a mat: the floats as bit patterns, the ints, and the
   sub-records it carries. *)
let mat_bits (m : Mat.t) =
  ( List.map Int64.bits_of_float
      [
        m.Mat.width; m.Mat.height; m.Mat.area; m.Mat.t_row_path;
        m.Mat.t_wordline; m.Mat.t_bitline; m.Mat.t_sense; m.Mat.t_column_out;
        m.Mat.t_precharge; m.Mat.t_restore; m.Mat.e_row_activate;
        m.Mat.e_column_read; m.Mat.e_column_write; m.Mat.e_precharge;
        m.Mat.leakage; m.Mat.leakage_cells;
      ],
    [
      m.Mat.n_subarrays; m.Mat.horiz_subarrays; m.Mat.n_sense_amps;
      m.Mat.active_cols; m.Mat.sensed_bits; m.Mat.out_bits;
    ],
    (m.Mat.subarray, m.Mat.decoder, m.Mat.sense) )

(* Every Ndsam pair of the partition grid, plus pairs outside the staged
   mux tables (the on-demand fallback). *)
let ndsam_pairs =
  List.concat_map (fun a -> List.map (fun b -> (a, b)) Org.ndsams) Org.ndsams
  @ [ (5, 1); (1, 32); (24, 7) ]

(* Random mat inputs over all three cell kinds and several nodes: subarray
   dimensions across the screen's bounds, both tilings, the grid's
   bitline-mux degrees and degrees outside the staged table, and an
   output width.  [finish] of the shared [base] must equal the one-piece
   assembly for every Ndsam pair. *)
let prop_mat_finish_base_equal_onepiece =
  QCheck.Test.make ~name:"finish of base = one-piece mat" ~count:60
    QCheck.(
      pair
        (triple
           (oneofl [ Cell.Sram; Cell.Lp_dram; Cell.Comm_dram ])
           (oneofl [ 90.; 65.; 45.; 32. ])
           (oneofl [ 1; 2; 4; 8; 3; 16 ]))
        (triple
           (pair (int_range 16 4096) (int_range 16 8192))
           (pair (int_range 1 2) (int_range 1 2))
           (int_range 1 512)))
    (fun ((ram, nm, deg_bl_mux), ((rows, cols), (horiz, vert), out_bits)) ->
      let spec =
        Array_spec.create ~ram ~tech:(Technology.at_nm nm) ~n_rows:rows
          ~row_bits:cols ~output_bits:64 ()
      in
      let staged = Mat.staged_of_spec spec in
      let deg = if Cell.is_dram ram then 1 else deg_bl_mux in
      let sensed = max 1 (horiz * cols / deg) in
      let g =
        {
          Mat.g_rows_sub = rows;
          g_cols_sub = cols;
          g_horiz = horiz;
          g_vert = vert;
          g_out_bits = out_bits;
          g_sensed = sensed;
          g_sensed_per_access =
            (if Cell.is_dram ram then horiz * cols else sensed);
        }
      in
      let subarray = Mat.subarray_of ~staged ~rows ~cols ~deg in
      let decoder =
        Cacti_circuit.Decoder.combine
          (Mat.predecode_of ~staged subarray ~vert)
          (Mat.line_driver_of ~staged subarray ~horiz)
      in
      let b = Mat.base ~staged ~deg g ~subarray ~decoder in
      List.for_all
        (fun (ndsam_lev1, ndsam_lev2) ->
          let org =
            org ~ndwl:2 ~ndbl:2 ~mux:deg_bl_mux ~ns1:ndsam_lev1 ~ns2:ndsam_lev2
              ()
          in
          Mat.eff_deg ~staged org = deg
          && compare
               (mat_bits (Mat.finish ~staged b ~ndsam_lev1 ~ndsam_lev2))
               (mat_bits
                  (Oracle.Mat_onepiece.of_parts ~staged ~org g ~subarray
                     ~decoder))
             = 0)
        ndsam_pairs)

let prop_bank_energy_scales_with_output =
  QCheck.Test.make ~name:"wider output never cheaper to read" ~count:10
    (QCheck.int_range 6 8)
    (fun log_out ->
      let out = 1 lsl log_out in
      let sols = enumerate (spec ~rows:1024 ~row_bits:4096 ~out ()) in
      let sols2 = enumerate (spec ~rows:1024 ~row_bits:4096 ~out:(out * 2) ()) in
      let best l =
        List.fold_left (fun acc (b : Bank.t) -> min acc b.Bank.e_read)
          Float.infinity l
      in
      sols = [] || sols2 = [] || best sols2 >= best sols *. 0.8)

let () =
  Alcotest.run "array"
    [
      ( "spec and org",
        [
          Alcotest.test_case "spec validation" `Quick test_spec_validation;
          Alcotest.test_case "org helpers" `Quick test_org_helpers;
          Alcotest.test_case "dram candidates" `Quick test_candidates_dram_mux_fixed;
        ] );
      ( "mat",
        [
          Alcotest.test_case "invalid orgs" `Quick test_mat_invalid_orgs_rejected;
          Alcotest.test_case "valid mat" `Quick test_mat_valid;
          Alcotest.test_case "dram restore" `Quick test_dram_mat_has_restore;
          Alcotest.test_case "screen = flat classify" `Slow
            test_screen_matches_flat_classify;
          Alcotest.test_case "staged = fresh" `Quick
            test_staged_evaluate_identical;
          Alcotest.test_case "screen tree = fresh screen" `Quick
            test_screen_tree_instantiation;
          QCheck_alcotest.to_alcotest prop_subarray_geometry;
          QCheck_alcotest.to_alcotest prop_mat_finish_base_equal_onepiece;
        ] );
      ( "bank",
        [
          Alcotest.test_case "enumerate" `Quick test_bank_enumerate_nonempty;
          Alcotest.test_case "counts partition" `Slow test_bank_counts_partition;
          Alcotest.test_case "lower bounds admissible" `Slow
            test_lower_bounds_admissible;
          Alcotest.test_case "metrics positive" `Slow test_bank_metrics_positive;
          Alcotest.test_case "sram no refresh" `Quick test_bank_sram_no_refresh;
          Alcotest.test_case "dram timing invariants" `Slow test_bank_dram_timing_invariants;
          Alcotest.test_case "page constraint" `Slow test_page_constraint_filters;
          Alcotest.test_case "sleep transistors" `Quick test_sleep_tx_reduces_leakage;
          Alcotest.test_case "repeater penalty" `Slow test_repeater_penalty_saves_energy;
          Alcotest.test_case "capacity vs area" `Slow test_capacity_monotone_area;
          Alcotest.test_case "density ordering" `Slow test_dram_denser_than_sram;
          Alcotest.test_case "comm leakage" `Slow test_comm_lowest_leakage;
          Alcotest.test_case "enumerate = oracle" `Slow
            test_enumerate_oracle_identity;
          QCheck_alcotest.to_alcotest prop_enumerate_oracle_identity;
          QCheck_alcotest.to_alcotest prop_bank_energy_scales_with_output;
        ] );
    ]
