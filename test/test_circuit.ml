open Cacti_tech
open Cacti_circuit

let t32 = Technology.at_nm 32.
let periph = Technology.peripheral_device t32 Sram
let feature = Technology.feature_size t32
let am = Area_model.create ~feature_size:feature ~l_gate:periph.Device.l_phy

let test_horowitz_step_input () =
  let tf = 10e-12 in
  let d0 = Horowitz.delay ~input_ramp:0. ~tf ~v_th_fraction:0.5 in
  let d1 = Horowitz.delay ~input_ramp:20e-12 ~tf ~v_th_fraction:0.5 in
  Alcotest.(check bool) "step input faster" true (d0 < d1);
  Alcotest.(check bool) "positive" true (d0 > 0.)

let test_horowitz_monotone_tf () =
  let d tf = Horowitz.delay ~input_ramp:5e-12 ~tf ~v_th_fraction:0.4 in
  Alcotest.(check bool) "larger tf slower" true (d 20e-12 > d 10e-12)

let test_logical_effort () =
  Alcotest.(check int) "unit effort 1 stage" 1
    (Logical_effort.n_stages ~path_effort:1.0);
  Alcotest.(check int) "F=64 -> 3 stages" 3
    (Logical_effort.n_stages ~path_effort:64.);
  Alcotest.(check (float 1e-9)) "per-stage effort" 4.
    (Logical_effort.stage_effort ~path_effort:64. ~n:3)

let test_gate_scaling () =
  let g1 = Gate.inverter ~area:am periph ~w_n:(3. *. feature) in
  let g2 = Gate.inverter ~area:am periph ~w_n:(6. *. feature) in
  Alcotest.(check bool) "wider drives harder" true (g2.Gate.r_drive < g1.Gate.r_drive);
  Alcotest.(check bool) "wider loads more" true (g2.Gate.c_in > g1.Gate.c_in);
  Alcotest.(check bool) "wider leaks more" true (g2.Gate.leakage > g1.Gate.leakage);
  Alcotest.(check bool) "wider bigger" true (g2.Gate.area > g1.Gate.area)

let test_nand_vs_inverter () =
  let inv = Gate.inverter ~area:am periph ~w_n:(4. *. feature) in
  let nand = Gate.nand ~area:am ~fan_in:2 periph ~w_n:(4. *. feature) in
  Alcotest.(check bool) "nand has more input cap" true
    (nand.Gate.c_in > inv.Gate.c_in);
  Alcotest.(check bool) "nand bigger" true (nand.Gate.area > inv.Gate.area)

let test_area_folding () =
  let unconstrained = Area_model.gate_area am [ 20. *. feature ] in
  let folded =
    Area_model.gate_area am ~max_height:(5. *. feature) [ 20. *. feature ]
  in
  Alcotest.(check bool) "folding adds area" true (folded >= unconstrained);
  Alcotest.(check (float 1e-24)) "4 legs of 5 F"
    (4. *. am.Area_model.contacted_pitch *. 5. *. feature
    *. am.Area_model.wiring_factor)
    folded

let test_driver_chain_sizing () =
  let small =
    Driver.chain ~device:periph ~area:am ~feature ~c_load:1e-15 ()
  in
  let big =
    Driver.chain ~device:periph ~area:am ~feature ~c_load:1e-12 ()
  in
  Alcotest.(check bool) "more stages for bigger load" true
    (big.Driver.n_stages > small.Driver.n_stages);
  Alcotest.(check bool) "bigger load more energy" true
    (big.Driver.stage.Stage.energy > small.Driver.stage.Stage.energy);
  Alcotest.(check bool) "positive delay" true
    (small.Driver.stage.Stage.delay > 0.)

let test_driver_vpp_swing_energy () =
  let vdd = Driver.chain ~device:periph ~area:am ~feature ~c_load:1e-13 () in
  let vpp =
    Driver.chain ~device:periph ~area:am ~feature ~v_swing:2.6 ~c_load:1e-13 ()
  in
  Alcotest.(check bool) "boosted swing costs more energy" true
    (vpp.Driver.stage.Stage.energy > vdd.Driver.stage.Stage.energy)

let test_repeater_optimum () =
  let wire = Technology.wire t32 Semi_global in
  let r = Repeater.design ~device:periph ~area:am ~feature ~wire () in
  (* 100-250 ps/mm is the credible band for 32nm semi-global repeated
     wires. *)
  let ps_per_mm = r.Repeater.delay_per_m *. 1e12 /. 1e3 in
  Alcotest.(check bool)
    (Printf.sprintf "delay/mm plausible (%.0f ps/mm)" ps_per_mm)
    true
    (ps_per_mm > 60. && ps_per_mm < 400.);
  Alcotest.(check bool) "spacing positive" true (r.Repeater.spacing > 10e-6)

let test_repeater_constraint_trades_energy () =
  let wire = Technology.wire t32 Semi_global in
  let fast = Repeater.design ~device:periph ~area:am ~feature ~wire () in
  let eco =
    Repeater.design ~device:periph ~area:am ~feature ~max_delay_penalty:0.4
      ~wire ()
  in
  Alcotest.(check bool) "constrained no faster" true
    (eco.Repeater.delay_per_m >= fast.Repeater.delay_per_m -. 1e-9);
  Alcotest.(check bool) "constrained saves energy" true
    (eco.Repeater.energy_per_m <= fast.Repeater.energy_per_m +. 1e-18)

(* A whole decoder, composed from its two halves as the solver does. *)
let decoder ~n_select ~c_line ~r_line ?v_line_swing () =
  Decoder.combine
    (Decoder.predecode ~periph ~area:am ~feature
       ~wire:(Technology.wire t32 Local) ~n_select ~strip_length:50e-6 ())
    (Decoder.line_driver ~periph ~area:am ~feature ~c_line ~r_line
       ?v_line_swing ())

(* Every repeater design the solver can ask for: the H-tree and chip
   routes (semi-global wires, the cell kind's peripheral device) and the
   study's L3 crossbar (global wires, long-channel HP), at any node and
   wire projection and any allowed delay penalty. *)
let prop_repeater_design_physical =
  QCheck.Test.make ~name:"repeater design physical" ~count:200
    QCheck.(
      triple (float_range 32. 90.)
        (pair bool (oneofl [ `Periph Cell.Sram; `Periph Cell.Lp_dram;
                             `Periph Cell.Comm_dram; `Crossbar ]))
        (float_range 0. 1.))
    (fun (nm, (aggressive, use), max_delay_penalty) ->
      let tech =
        Technology.at_nm
          ~wire_projection:
            (if aggressive then Wire.Aggressive else Wire.Conservative)
          nm
      in
      let device, wire =
        match use with
        | `Periph ram ->
            (Technology.peripheral_device tech ram, Wire.Semi_global)
        | `Crossbar -> (Technology.device tech Hp_long_channel, Wire.Global)
      in
      let feature = Technology.feature_size tech in
      let area =
        Area_model.create ~feature_size:feature ~l_gate:device.Device.l_phy
      in
      let r =
        Repeater.design ~device ~area ~feature ~max_delay_penalty
          ~wire:(Technology.wire tech wire) ()
      in
      let finite_pos x = Float.is_finite x && x > 0. in
      Float.is_finite r.Repeater.spacing
      && r.Repeater.spacing >= 20e-6
      && finite_pos r.Repeater.delay_per_m
      && finite_pos r.Repeater.energy_per_m)

let test_decoder_bigger_is_slower () =
  let mk n = decoder ~n_select:n ~c_line:3e-14 ~r_line:1000. () in
  let d128 = mk 128 and d1024 = mk 1024 in
  Alcotest.(check bool) "1024 rows slower" true
    (d1024.Decoder.stage.Stage.delay > d128.Decoder.stage.Stage.delay);
  Alcotest.(check bool) "1024 rows leak more" true
    (d1024.Decoder.stage.Stage.leakage > d128.Decoder.stage.Stage.leakage)

let test_decoder_vpp_energy () =
  let mk v =
    decoder ~n_select:256 ~c_line:1e-13 ~r_line:2000. ~v_line_swing:v ()
  in
  let low = mk 1.0 and high = mk 2.6 in
  Alcotest.(check bool) "VPP wordline costs more" true
    (high.Decoder.stage.Stage.energy > low.Decoder.stage.Stage.energy)

let test_sram_bitline () =
  let cell = Technology.cell t32 Sram in
  let bl r = Bitline.sram ~cell ~periph ~feature ~rows:r ~c_sense_input:2e-15 in
  let b64 = bl 64 and b512 = bl 512 in
  Alcotest.(check bool) "more rows slower develop" true
    (b512.Bitline.t_read_develop > b64.Bitline.t_read_develop);
  Alcotest.(check bool) "more rows more energy" true
    (b512.Bitline.e_read_per_column > b64.Bitline.e_read_per_column);
  Alcotest.(check bool) "write costs more than read" true
    (b64.Bitline.e_write_per_column > b64.Bitline.e_read_per_column)

let test_dram_bitline_signal_limit () =
  let cell = Technology.cell t32 Comm_dram in
  let bl r = Bitline.dram ~cell ~periph ~feature ~rows:r ~c_sense_input:2e-15 in
  let short = bl 128 and long_bl = bl 4096 in
  Alcotest.(check bool) "short bitline viable" true short.Bitline.viable;
  Alcotest.(check bool) "4096-row bitline not viable" false
    long_bl.Bitline.viable;
  Alcotest.(check bool) "signal shrinks with rows" true
    (long_bl.Bitline.signal < short.Bitline.signal)

let test_dram_destructive_readout_cost () =
  (* Writeback/restore makes the DRAM row cycle much longer than the
     charge-share read itself. *)
  let cell = Technology.cell t32 Comm_dram in
  let bl = Bitline.dram ~cell ~periph ~feature ~rows:512 ~c_sense_input:2e-15 in
  Alcotest.(check bool) "restore dominates" true
    (bl.Bitline.t_restore > bl.Bitline.t_charge_share);
  Alcotest.(check bool) "activate energy positive" true
    (bl.Bitline.e_activate_per_column > 0.)

let test_sense_amp_weaker_signal_slower () =
  let sa =
    Sense_amp.make ~device:periph ~area:am ~feature ~cell_pitch:0.6e-6
      ~deg_bl_mux:4 ()
  in
  Alcotest.(check bool) "weak signal slower" true
    (Sense_amp.amplify sa ~signal:0.05 > Sense_amp.amplify sa ~signal:0.3)

let test_mux_degree () =
  let m d =
    Mux.pass_gate_mux ~device:periph ~area:am ~feature ~degree:d
      ~c_in_next:5e-15 ()
  in
  Alcotest.(check bool) "higher degree slower" true
    ((m 8).Mux.delay > (m 2).Mux.delay);
  Alcotest.(check bool) "higher degree bigger" true
    ((m 8).Mux.area_per_output_bit > (m 2).Mux.area_per_output_bit)

let test_comparator_width () =
  let c b = Comparator.make ~device:periph ~area:am ~feature ~bits:b in
  Alcotest.(check bool) "wider comparator slower" true
    ((c 40).Comparator.delay >= (c 10).Comparator.delay);
  Alcotest.(check bool) "wider costs more" true
    ((c 40).Comparator.energy > (c 10).Comparator.energy)

let test_htree_scaling () =
  let wire = Technology.wire t32 Semi_global in
  let rep = Repeater.design ~device:periph ~area:am ~feature ~wire () in
  let small = Htree.plan ~repeater:rep ~bank_width:1e-3 ~bank_height:1e-3 in
  let big = Htree.plan ~repeater:rep ~bank_width:4e-3 ~bank_height:4e-3 in
  let ls = Htree.link small ~bits:512 ~activity:0.5 () in
  let lb = Htree.link big ~bits:512 ~activity:0.5 () in
  Alcotest.(check bool) "bigger bank slower tree" true
    (lb.Stage.delay > ls.Stage.delay);
  Alcotest.(check bool) "bigger bank more energy" true
    (lb.Stage.energy > ls.Stage.energy);
  let half = Htree.link big ~bits:256 ~activity:0.5 () in
  Alcotest.(check (float 1e-6)) "energy linear in bits" (lb.Stage.energy /. 2.)
    half.Stage.energy

let test_crossbar () =
  let wire = Technology.wire t32 Global in
  let hp = Technology.device t32 Hp in
  let x =
    Crossbar.design ~device:hp ~area:am ~feature ~wire ~n_in:8 ~n_out:8
      ~bits:512 ~span:7e-3 ()
  in
  Alcotest.(check bool) "delay ~ns scale" true
    (x.Crossbar.delay > 0.2e-9 && x.Crossbar.delay < 10e-9);
  Alcotest.(check bool) "energy positive" true (x.Crossbar.e_per_transfer > 0.);
  let x4 =
    Crossbar.design ~device:hp ~area:am ~feature ~wire ~n_in:4 ~n_out:4
      ~bits:512 ~span:7e-3 ()
  in
  Alcotest.(check bool) "smaller crossbar smaller area" true
    (x4.Crossbar.area < x.Crossbar.area)


let prop_driver_monotone_load =
  QCheck.Test.make ~name:"driver delay monotone in load" ~count:50
    QCheck.(pair (float_range 1e-15 1e-12) (float_range 1.2 4.))
    (fun (c, k) ->
      let d1 = Driver.chain ~device:periph ~area:am ~feature ~c_load:c () in
      let d2 =
        Driver.chain ~device:periph ~area:am ~feature ~c_load:(c *. k) ()
      in
      d2.Driver.stage.Stage.delay >= d1.Driver.stage.Stage.delay *. 0.75)

let prop_bitline_positive =
  QCheck.Test.make ~name:"bitline metrics physical" ~count:100
    QCheck.(int_range 16 2048)
    (fun rows ->
      let cell = Technology.cell t32 Sram in
      let bl =
        Bitline.sram ~cell ~periph ~feature ~rows ~c_sense_input:2e-15
      in
      bl.Bitline.t_read_develop > 0.
      && bl.Bitline.t_precharge > 0.
      && bl.Bitline.e_read_per_column > 0.
      && bl.Bitline.c_bitline > 0.)

(* --- decoder halves = the one-piece decoder, bit for bit ----------- *)

let decoder_bits (d : Decoder.t) =
  let s = d.Decoder.stage in
  ( List.map Int64.bits_of_float
      [
        s.Stage.delay; s.Stage.energy; s.Stage.leakage; s.Stage.area;
        d.Decoder.t_predecode; d.Decoder.t_gate_drive; d.Decoder.t_line;
      ],
    d.Decoder.n_stages )

let ram_kinds = [ Cell.Sram; Cell.Lp_dram; Cell.Comm_dram ]

(* Random decoder inputs over every cell kind: the peripheral device and
   local wire of a node, a select-line count across the whole range the
   mat tiling yields (and the 1-line corner), random line parasitics, and
   with or without a VPP swing and an input ramp. *)
let decoder_input_arb =
  QCheck.(
    pair
      (triple (oneofl ram_kinds) (oneofl [ 90.; 78.; 65.; 45.; 32. ])
         (int_range 1 16384))
      (pair
         (triple (float_range 1e-6 2e-3) (float_range 1e-16 5e-12)
            (float_range 1. 1e5))
         (pair (option (float_range 0.5 3.5)) (option (float_range 0. 2e-10)))))

let prop_decoder_halves_equal_onepiece =
  QCheck.Test.make ~name:"decoder halves = one-piece"
    ~count:500 decoder_input_arb
    (fun ((ram, nm, n_select), ((strip_length, c_line, r_line), (v_swing, ramp))) ->
      let tech = Technology.at_nm nm in
      let periph = Technology.peripheral_device tech ram in
      let feature = Technology.feature_size tech in
      let area =
        Area_model.create ~feature_size:feature ~l_gate:periph.Device.l_phy
      in
      let wire = Technology.wire tech Wire.Local in
      let split =
        Decoder.combine
          (Decoder.predecode ~periph ~area ~feature ~wire ~n_select
             ~strip_length ?input_ramp:ramp ())
          (Decoder.line_driver ~periph ~area ~feature ~c_line ~r_line
             ?v_line_swing:v_swing ())
      in
      let reference =
        Oracle.Decoder_onepiece.decoder ~periph ~area ~feature ~wire
          ~n_select ~strip_length ~c_line ~r_line ?v_line_swing:v_swing
          ?input_ramp:ramp ()
      in
      decoder_bits split = decoder_bits reference)

let () =
  Alcotest.run "circuit"
    [
      ( "delay primitives",
        [
          Alcotest.test_case "horowitz step" `Quick test_horowitz_step_input;
          Alcotest.test_case "horowitz tf" `Quick test_horowitz_monotone_tf;
          Alcotest.test_case "logical effort" `Quick test_logical_effort;
        ] );
      ( "gates and drivers",
        [
          Alcotest.test_case "gate scaling" `Quick test_gate_scaling;
          Alcotest.test_case "nand vs inverter" `Quick test_nand_vs_inverter;
          Alcotest.test_case "area folding" `Quick test_area_folding;
          Alcotest.test_case "driver sizing" `Quick test_driver_chain_sizing;
          Alcotest.test_case "vpp swing energy" `Quick test_driver_vpp_swing_energy;
          QCheck_alcotest.to_alcotest prop_driver_monotone_load;
        ] );
      ( "wires",
        [
          Alcotest.test_case "repeater optimum" `Quick test_repeater_optimum;
          Alcotest.test_case "repeater constraint" `Quick test_repeater_constraint_trades_energy;
          Alcotest.test_case "htree scaling" `Quick test_htree_scaling;
          Alcotest.test_case "crossbar" `Quick test_crossbar;
          QCheck_alcotest.to_alcotest prop_repeater_design_physical;
        ] );
      ( "array circuits",
        [
          Alcotest.test_case "decoder size" `Quick test_decoder_bigger_is_slower;
          Alcotest.test_case "decoder vpp" `Quick test_decoder_vpp_energy;
          QCheck_alcotest.to_alcotest prop_decoder_halves_equal_onepiece;
          Alcotest.test_case "sram bitline" `Quick test_sram_bitline;
          Alcotest.test_case "dram signal limit" `Quick test_dram_bitline_signal_limit;
          Alcotest.test_case "destructive readout" `Quick test_dram_destructive_readout_cost;
          Alcotest.test_case "sense amp" `Quick test_sense_amp_weaker_signal_slower;
          Alcotest.test_case "mux degree" `Quick test_mux_degree;
          Alcotest.test_case "comparator" `Quick test_comparator_width;
          QCheck_alcotest.to_alcotest prop_bitline_positive;
        ] );
    ]
