(* The one-piece row decoder that [Cacti_circuit.Decoder.decoder] was
   before it became [combine (predecode ...) (line_driver ...)], kept
   verbatim as the bit-level reference: the differential properties in
   test_circuit.ml compare every float field of the two over random
   inputs. *)

open Cacti_tech
open Cacti_circuit

let decoder ~periph ~area ~feature ~wire ~n_select ~strip_length ~c_line
    ~r_line ?v_line_swing ?(input_ramp = 0.) () =
  assert (n_select >= 1);
  let d = periph in
  let vdd = d.Device.vdd in
  let v_line_swing = match v_line_swing with Some v -> v | None -> vdd in
  let n_bits = Cacti_util.Floatx.clog2 (max 2 n_select) in
  let n_groups = max 1 ((n_bits + 1) / 2) in
  (* Final NAND per select line. *)
  let w_nand = 4. *. feature in
  let final_nand = Gate.nand ~area ~fan_in:n_groups d ~w_n:w_nand in
  (* Line driver chain fed by the final NAND. *)
  let line_driver =
    Driver.chain ~device:d ~area ~feature ~w_n_first:(6. *. feature)
      ~r_wire:r_line ~c_wire:c_line ~v_swing:v_line_swing ~c_load:0. ()
  in
  (* Predecode line: each line feeds a quarter of the final NANDs (2-bit
     groups) plus its wire across the strip. *)
  let fanout = max 1 (n_select / 4) in
  let c_predec_wire = wire.Wire.c_per_m *. strip_length in
  let r_predec_wire = wire.Wire.r_per_m *. strip_length in
  let c_predec_line =
    (float_of_int fanout *. final_nand.Gate.c_in) +. c_predec_wire
  in
  (* Predecode NAND2 + its driver chain. *)
  let predec_nand = Gate.nand ~area ~fan_in:2 d ~w_n:(3. *. feature) in
  let predec_driver =
    Driver.chain ~device:d ~area ~feature ~input_ramp
      ~w_n_first:(3. *. feature) ~r_wire:r_predec_wire ~c_wire:c_predec_line
      ~c_load:0. ()
  in
  let tf_pnand = Gate.tf predec_nand ~c_load:(3. *. feature *. 3. *. d.Device.c_gate) in
  let t_predec_nand =
    Horowitz.delay ~input_ramp ~tf:tf_pnand
      ~v_th_fraction:predec_nand.Gate.v_th_fraction
  in
  let t_predecode = t_predec_nand +. predec_driver.Driver.stage.Stage.delay in
  (* Final NAND switching into the driver's first gate. *)
  let c_first_driver =
    let w = 6. *. feature in
    (w +. (2. *. w)) *. d.Device.c_gate
  in
  let tf_nand = Gate.tf final_nand ~c_load:c_first_driver in
  let t_nand =
    Horowitz.delay ~input_ramp:predec_driver.Driver.output_ramp ~tf:tf_nand
      ~v_th_fraction:final_nand.Gate.v_th_fraction
  in
  let t_gate_drive = t_nand +. line_driver.Driver.stage.Stage.delay in
  (* The driver chain already includes line RC in its last-stage delay; keep
     an explicit distributed-flight term for the far end of the line. *)
  let t_line = 0.38 *. r_line *. c_line in
  (* Energy per access: one predecode line per group rises and one falls;
     two final NAND outputs and one full select line switch. *)
  let e_predec =
    float_of_int n_groups
      *. ((c_predec_line *. vdd *. vdd) +. predec_driver.Driver.stage.Stage.energy)
  in
  let e_line = line_driver.Driver.stage.Stage.energy in
  let e_nand = 2. *. Gate.switching_energy final_nand ~c_load:c_first_driver in
  let energy = e_predec +. e_nand +. e_line in
  (* Leakage: every row has a NAND + driver chain; 4*n_groups predecode
     blocks. *)
  let leakage =
    (float_of_int n_select
    *. (final_nand.Gate.leakage +. line_driver.Driver.stage.Stage.leakage))
    +. (float_of_int (4 * n_groups)
       *. (predec_nand.Gate.leakage +. predec_driver.Driver.stage.Stage.leakage))
  in
  let area_total =
    (float_of_int n_select
    *. (final_nand.Gate.area +. line_driver.Driver.stage.Stage.area))
    +. (float_of_int (4 * n_groups)
       *. (predec_nand.Gate.area +. predec_driver.Driver.stage.Stage.area))
  in
  let delay = t_predecode +. t_gate_drive +. t_line in
  {
    Decoder.stage = { Stage.delay; energy; leakage; area = area_total };
    t_predecode;
    t_gate_drive;
    t_line;
    n_stages = 2 + predec_driver.Driver.n_stages + line_driver.Driver.n_stages;
  }
