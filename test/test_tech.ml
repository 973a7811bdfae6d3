open Cacti_tech

let t32 = Technology.at_nm 32.
let t90 = Technology.at_nm 90.

let test_nodes_cover_itrs () =
  Alcotest.(check int) "four nodes" 4 (List.length Node.all);
  List.iter
    (fun n ->
      Alcotest.(check int) "six device kinds" 6 (List.length n.Node.devices);
      Alcotest.(check int) "three cells" 3 (List.length n.Node.cells))
    Node.all

let test_hp_scaling_trend () =
  (* HP drive current improves and VDD drops across nodes. *)
  let rec pairs = function
    | a :: (b :: _ as rest) -> (a, b) :: pairs rest
    | _ -> []
  in
  List.iter
    (fun (a, b) ->
      let da = Node.device a Hp and db = Node.device b Hp in
      Alcotest.(check bool) "i_on grows" true
        (db.Device.i_on_n > da.Device.i_on_n);
      Alcotest.(check bool) "vdd shrinks" true (db.Device.vdd < da.Device.vdd);
      Alcotest.(check bool) "gate length shrinks" true
        (db.Device.l_phy < da.Device.l_phy))
    (pairs Node.all)

let test_lstp_constant_leakage () =
  (* The ITRS LSTP leakage target of ~10 pA/um holds at every node. *)
  List.iter
    (fun n ->
      let d = Node.device n Lstp in
      Alcotest.(check (float 1e-6)) "10 pA/um" 1e-5 d.Device.i_off_n)
    Node.all

let test_lstp_slower_than_hp () =
  List.iter
    (fun n ->
      let hp = Node.device n Hp and lstp = Node.device n Lstp in
      Alcotest.(check bool) "LSTP slower" true
        (lstp.Device.i_on_n < hp.Device.i_on_n);
      Alcotest.(check bool) "LSTP less leaky" true
        (lstp.Device.i_off_n < hp.Device.i_off_n /. 100.);
      Alcotest.(check bool) "LSTP longer channel" true
        (lstp.Device.l_phy > hp.Device.l_phy))
    Node.all

let test_long_channel_tradeoff () =
  let hp = Technology.device t32 Hp in
  let lc = Technology.device t32 Hp_long_channel in
  Alcotest.(check bool) "lower leakage" true
    (lc.Device.i_off_n < 0.3 *. hp.Device.i_off_n);
  Alcotest.(check bool) "lower drive" true (lc.Device.i_on_n < hp.Device.i_on_n)

let test_fo4_ordering () =
  let fo4_hp = Technology.fo4 t32 Hp in
  let fo4_lstp = Technology.fo4 t32 Lstp in
  let fo4_hp90 = Technology.fo4 t90 Hp in
  Alcotest.(check bool) "HP faster than LSTP" true (fo4_hp < fo4_lstp);
  Alcotest.(check bool) "32nm faster than 90nm" true (fo4_hp < fo4_hp90);
  Alcotest.(check bool) "FO4 plausible" true (fo4_hp > 3e-12 && fo4_hp < 30e-12)

let test_table1_values () =
  (* Table 1 of the paper at 32 nm. *)
  let sram = Technology.cell t32 Sram in
  let lp = Technology.cell t32 Lp_dram in
  let comm = Technology.cell t32 Comm_dram in
  Alcotest.(check (float 1e-9)) "SRAM 146F2" 146. sram.Cell.area_f2;
  Alcotest.(check (float 1e-9)) "LP-DRAM 30F2" 30. lp.Cell.area_f2;
  Alcotest.(check (float 1e-9)) "COMM-DRAM 6F2" 6. comm.Cell.area_f2;
  Alcotest.(check (float 1e-22)) "LP storage 20fF" 20e-15 lp.Cell.storage_cap;
  Alcotest.(check (float 1e-22)) "COMM storage 30fF" 30e-15 comm.Cell.storage_cap;
  Alcotest.(check (float 1e-9)) "LP vpp" 1.5 lp.Cell.vpp;
  Alcotest.(check (float 1e-9)) "COMM vpp" 2.6 comm.Cell.vpp;
  Alcotest.(check (float 1e-9)) "LP retention 0.12ms" 0.12e-3 lp.Cell.retention_time;
  Alcotest.(check (float 1e-9)) "COMM retention 64ms" 64e-3 comm.Cell.retention_time;
  Alcotest.(check (float 1e-9)) "cell vdd 1.0 (LP)" 1.0 lp.Cell.vdd_cell

let test_cell_geometry () =
  let c = Technology.cell t32 Sram in
  let f = Technology.feature_size t32 in
  Alcotest.(check (float 1e-18)) "w*h = area" (c.Cell.area_f2 *. f *. f)
    (Cell.width c ~feature_size:f *. Cell.height c ~feature_size:f)

let test_dram_sense_signal_decreases_with_cbl () =
  let c = Technology.cell t32 Comm_dram in
  let s1 = Cell.sense_signal c ~c_bitline:10e-15 in
  let s2 = Cell.sense_signal c ~c_bitline:100e-15 in
  Alcotest.(check bool) "longer bitline, weaker signal" true (s2 < s1);
  Alcotest.(check bool) "bounded by vdd/2" true (s1 < c.Cell.vdd_cell /. 2.)

let test_restore_time_ordering () =
  let lp = Technology.cell t32 Lp_dram in
  let comm = Technology.cell t32 Comm_dram in
  Alcotest.(check bool) "COMM restore slower than LP" true
    (Cell.restore_time comm > Cell.restore_time lp);
  Alcotest.(check (float 0.)) "SRAM no restore" 0.
    (Cell.restore_time (Technology.cell t32 Sram))

let test_interpolation_at_78nm () =
  let t78 = Technology.at_nm 78. in
  Alcotest.(check (float 0.5)) "feature size" 78.
    (Technology.feature_size t78 *. 1e9);
  let d78 = Technology.device t78 Hp in
  let d90 = Technology.device t90 Hp in
  let d65 = Technology.device (Technology.at_nm 65.) Hp in
  Alcotest.(check bool) "vdd between nodes" true
    (d78.Device.vdd <= d90.Device.vdd && d78.Device.vdd >= d65.Device.vdd);
  Alcotest.(check bool) "i_on between nodes" true
    (d78.Device.i_on_n >= d90.Device.i_on_n
    && d78.Device.i_on_n <= d65.Device.i_on_n)

let test_interpolation_continuity_at_nodes () =
  (* Asking for exactly 65 nm must reproduce the 65 nm table. *)
  let t65 = Technology.at_nm 65. in
  let direct = Node.device (List.nth Node.all 1) Hp in
  let viainterp = Technology.device t65 Hp in
  Alcotest.(check (float 1e-9)) "vdd" direct.Device.vdd viainterp.Device.vdd;
  Alcotest.(check bool) "i_on close" true
    (Float.abs (direct.Device.i_on_n -. viainterp.Device.i_on_n)
     /. direct.Device.i_on_n
    < 1e-6)

let test_out_of_range_rejected () =
  Alcotest.(check bool) "20nm rejected" true
    (try ignore (Technology.at_nm 20.); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "130nm rejected" true
    (try ignore (Technology.at_nm 130.); false
     with Invalid_argument _ -> true)

let test_peripheral_device_assignment () =
  (* Table 1: SRAM/LP-DRAM periphery = long-channel HP; COMM-DRAM = LSTP. *)
  Alcotest.(check bool) "sram periph" true
    ((Technology.peripheral_device t32 Sram).Device.kind = Hp_long_channel);
  Alcotest.(check bool) "lp periph" true
    ((Technology.peripheral_device t32 Lp_dram).Device.kind = Hp_long_channel);
  Alcotest.(check bool) "comm periph" true
    ((Technology.peripheral_device t32 Comm_dram).Device.kind = Lstp)

let test_wire_classes () =
  let local = Technology.wire t32 Local in
  let semi = Technology.wire t32 Semi_global in
  let glob = Technology.wire t32 Global in
  Alcotest.(check bool) "R local > semi > global" true
    (local.Wire.r_per_m > semi.Wire.r_per_m
    && semi.Wire.r_per_m > glob.Wire.r_per_m);
  Alcotest.(check bool) "C within 2x band" true
    (local.Wire.c_per_m < 2. *. glob.Wire.c_per_m
    && glob.Wire.c_per_m < 2. *. local.Wire.c_per_m)

let test_aggressive_wires_better () =
  let cons = Technology.at_nm 32. in
  let aggr = Technology.at_nm ~wire_projection:Wire.Aggressive 32. in
  let wc = Technology.wire cons Semi_global in
  let wa = Technology.wire aggr Semi_global in
  Alcotest.(check bool) "lower RC" true
    (wa.Wire.r_per_m *. wa.Wire.c_per_m < wc.Wire.r_per_m *. wc.Wire.c_per_m)

let test_table1_render () =
  let rows = Technology.table1 t32 in
  Alcotest.(check int) "nine rows" 9 (List.length rows);
  let cell_row, a, b, c = List.hd rows in
  Alcotest.(check string) "first row" "Cell area" cell_row;
  Alcotest.(check string) "sram" "146F^2" a;
  Alcotest.(check string) "lp" "30F^2" b;
  Alcotest.(check string) "comm" "6F^2" c

let prop_interpolated_devices_positive =
  QCheck.Test.make ~name:"interpolated device params physical" ~count:100
    QCheck.(float_range 32. 90.)
    (fun nm ->
      let t = Technology.at_nm nm in
      List.for_all
        (fun k ->
          let d = Technology.device t k in
          d.Device.vdd > 0. && d.Device.i_on_n > 0. && d.Device.i_off_n >= 0.
          && d.Device.c_gate > 0. && d.Device.l_phy > 0.)
        [ Hp; Lstp; Lop; Hp_long_channel; Dram_access_lp; Dram_access_comm ])

let prop_interpolated_monotone_feature =
  QCheck.Test.make ~name:"smaller node never slower FO4 (HP)" ~count:50
    QCheck.(pair (float_range 32. 88.) (float_range 0.01 1.0))
    (fun (nm, d) ->
      let a = Technology.at_nm (nm +. d) and b = Technology.at_nm nm in
      Technology.fo4 b Hp <= Technology.fo4 a Hp +. 1e-15)

let () =
  Alcotest.run "tech"
    [
      ( "devices",
        [
          Alcotest.test_case "nodes cover ITRS" `Quick test_nodes_cover_itrs;
          Alcotest.test_case "HP scaling trend" `Quick test_hp_scaling_trend;
          Alcotest.test_case "LSTP constant leakage" `Quick test_lstp_constant_leakage;
          Alcotest.test_case "LSTP vs HP" `Quick test_lstp_slower_than_hp;
          Alcotest.test_case "long-channel tradeoff" `Quick test_long_channel_tradeoff;
          Alcotest.test_case "FO4 ordering" `Quick test_fo4_ordering;
          Alcotest.test_case "peripheral assignment" `Quick test_peripheral_device_assignment;
          QCheck_alcotest.to_alcotest prop_interpolated_devices_positive;
        ] );
      ( "cells",
        [
          Alcotest.test_case "table 1 values" `Quick test_table1_values;
          Alcotest.test_case "geometry" `Quick test_cell_geometry;
          Alcotest.test_case "sense signal" `Quick test_dram_sense_signal_decreases_with_cbl;
          Alcotest.test_case "restore ordering" `Quick test_restore_time_ordering;
          Alcotest.test_case "table 1 rendering" `Quick test_table1_render;
        ] );
      ( "interpolation",
        [
          Alcotest.test_case "78nm point" `Quick test_interpolation_at_78nm;
          Alcotest.test_case "continuity at nodes" `Quick test_interpolation_continuity_at_nodes;
          Alcotest.test_case "out of range" `Quick test_out_of_range_rejected;
          QCheck_alcotest.to_alcotest prop_interpolated_monotone_feature;
        ] );
      ( "wires",
        [
          Alcotest.test_case "classes ordered" `Quick test_wire_classes;
          Alcotest.test_case "aggressive better" `Quick test_aggressive_wires_better;
        ] );
    ]
