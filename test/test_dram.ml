open Cacti_dram

let part = Ddr_catalog.ddr3_1066_1gb_x8
let solved = lazy (Ddr_catalog.solve part)

let test_catalog () =
  (* DDR3-1066 x8: 1066 MT/s x 8 pins = 1066 MB/s. *)
  Alcotest.(check (float 1.)) "peak bandwidth" 1066e6
    (Ddr_catalog.peak_bandwidth part)

let test_catalog_chip_consistent () =
  let c = (Lazy.force solved).Cacti.Mainmem.chip in
  Alcotest.(check int) "capacity" part.Ddr_catalog.capacity_bits
    c.Cacti.Mainmem.capacity_bits;
  Alcotest.(check int) "banks" 8 c.Cacti.Mainmem.n_banks

let test_power_calc_components () =
  let m = Lazy.force solved in
  let b = Power_calc.power m part Power_calc.typical in
  Alcotest.(check bool) "all nonnegative" true
    (b.Power_calc.background >= 0. && b.Power_calc.activate >= 0.
   && b.Power_calc.read >= 0. && b.Power_calc.write >= 0.
   && b.Power_calc.refresh > 0.);
  Alcotest.(check (float 1e-9)) "total = sum"
    (b.Power_calc.background +. b.Power_calc.activate +. b.Power_calc.read
   +. b.Power_calc.write +. b.Power_calc.refresh)
    b.Power_calc.total;
  (* A 1Gb DDR3 part under typical load burns a few hundred mW. *)
  Alcotest.(check bool)
    (Printf.sprintf "total plausible (%.0f mW)" (b.Power_calc.total *. 1e3))
    true
    (b.Power_calc.total > 0.05 && b.Power_calc.total < 2.0)

let test_power_monotone_in_load () =
  let m = Lazy.force solved in
  let at f =
    (Power_calc.power m part
       { Power_calc.typical with read_bw_fraction = f })
      .Power_calc.total
  in
  Alcotest.(check bool) "more reads, more power" true (at 0.6 > at 0.1)

let test_power_row_hits_save_activates () =
  let m = Lazy.force solved in
  let at hit =
    (Power_calc.power m part { Power_calc.typical with row_hit_ratio = hit })
      .Power_calc.activate
  in
  Alcotest.(check bool) "row hits cut activate power" true (at 0.9 < at 0.1);
  Alcotest.(check (float 1e-12)) "all hits, no activates" 0. (at 1.0)

let test_power_validation () =
  let m = Lazy.force solved in
  Alcotest.(check bool) "over-utilization rejected" true
    (try
       ignore
         (Power_calc.power m part
            { Power_calc.typical with read_bw_fraction = 0.8; write_bw_fraction = 0.5 });
       false
     with Invalid_argument _ -> true)

let test_idd_equivalents () =
  let m = Lazy.force solved in
  let i = Power_calc.idd_equivalents m part in
  (* Datasheet bands for a 1Gb DDR3 part: IDD2N tens of mA, IDD0 ~ 60-130mA,
     IDD4R ~ 100-250mA.  The model should land in the right decade. *)
  Alcotest.(check bool)
    (Printf.sprintf "IDD2N %.0f mA in [5, 120]" i.Power_calc.idd2n_ma)
    true
    (i.Power_calc.idd2n_ma > 5. && i.Power_calc.idd2n_ma < 120.);
  Alcotest.(check bool)
    (Printf.sprintf "IDD0 %.0f mA in [30, 300]" i.Power_calc.idd0_ma)
    true
    (i.Power_calc.idd0_ma > 30. && i.Power_calc.idd0_ma < 300.);
  Alcotest.(check bool) "IDD4R > IDD2N" true
    (i.Power_calc.idd4r_ma > i.Power_calc.idd2n_ma);
  Alcotest.(check bool) "IDD5 largest" true
    (i.Power_calc.idd5_ma > i.Power_calc.idd0_ma)

let test_dimm_composition () =
  let d = Dimm.create part in
  Alcotest.(check int) "8GB... 1Gb x 8 = 1GB" (1024 * 1024 * 1024)
    (Dimm.capacity_bytes d);
  Alcotest.(check (float 1e3)) "channel bandwidth 8x chip"
    (8. *. Ddr_catalog.peak_bandwidth part)
    (Dimm.peak_bandwidth d)

let test_dimm_power_scales_with_chips () =
  let m = Lazy.force solved in
  let p1 =
    (Dimm.power m (Dimm.create ~chips_per_rank:4 part) Power_calc.typical)
      .Power_calc.total
  in
  let p2 =
    (Dimm.power m (Dimm.create ~chips_per_rank:8 part) Power_calc.typical)
      .Power_calc.total
  in
  Alcotest.(check (float 1e-9)) "2x chips, 2x power" (2. *. p1) p2

let test_dimm_extra_rank_adds_idle_power () =
  let m = Lazy.force solved in
  let one = (Dimm.power m (Dimm.create ~n_ranks:1 part) Power_calc.typical).Power_calc.total in
  let two = (Dimm.power m (Dimm.create ~n_ranks:2 part) Power_calc.typical).Power_calc.total in
  Alcotest.(check bool) "second rank costs something" true (two > one);
  Alcotest.(check bool) "...but less than an active rank" true
    (two -. one < one)

let test_bus_power () =
  let d = Dimm.create part in
  let p = Dimm.bus_power d Power_calc.typical ~mw_per_gbps:2.0 in
  (* 8.5 GB/s peak x 40% utilization x 8 = 27 Gb/s -> ~55 mW at 2 mW/Gb/s *)
  Alcotest.(check bool)
    (Printf.sprintf "bus power plausible (%.1f mW)" (p *. 1e3))
    true
    (p > 0.01 && p < 0.2)

let () =
  Alcotest.run "dram"
    [
      ( "catalog",
        [
          Alcotest.test_case "parts" `Quick test_catalog;
          Alcotest.test_case "chip mapping" `Quick test_catalog_chip_consistent;
        ] );
      ( "power calculator",
        [
          Alcotest.test_case "components" `Slow test_power_calc_components;
          Alcotest.test_case "monotone in load" `Slow test_power_monotone_in_load;
          Alcotest.test_case "row-hit savings" `Slow test_power_row_hits_save_activates;
          Alcotest.test_case "validation" `Slow test_power_validation;
          Alcotest.test_case "IDD equivalents" `Slow test_idd_equivalents;
        ] );
      ( "dimm",
        [
          Alcotest.test_case "composition" `Quick test_dimm_composition;
          Alcotest.test_case "power scaling" `Slow test_dimm_power_scales_with_chips;
          Alcotest.test_case "idle rank" `Slow test_dimm_extra_rank_adds_idle_power;
          Alcotest.test_case "bus power" `Slow test_bus_power;
        ] );
    ]
