open Cacti_tech

type t = {
  stage : Stage.t;
  t_predecode : float;
  t_gate_drive : float;
  t_line : float;
  n_stages : int;
}

type predecode = {
  p_n_select : float;
  p_t_predecode : float;
  p_t_nand : float;
  p_energy : float;
  p_nand_leakage : float;
  p_nand_area : float;
  p_leakage : float;
  p_area : float;
  p_n_stages : int;
}

type line_driver = { l_stage : Stage.t; l_t_line : float; l_n_stages : int }

let predecode ~periph ~area ~feature ~wire ~n_select ~strip_length
    ?(input_ramp = 0.) () =
  assert (n_select >= 1);
  let d = periph in
  let vdd = d.Device.vdd in
  let n_bits = Cacti_util.Floatx.clog2 (Int.max 2 n_select) in
  let n_groups = Int.max 1 ((n_bits + 1) / 2) in
  (* Final NAND per select line. *)
  let w_nand = 4. *. feature in
  let final_nand = Gate.nand ~area ~fan_in:n_groups d ~w_n:w_nand in
  (* Predecode line: each line feeds a quarter of the final NANDs (2-bit
     groups) plus its wire across the strip. *)
  let fanout = Int.max 1 (n_select / 4) in
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
  (* Final NAND switching into the line driver's first gate. *)
  let c_first_driver =
    let w = 6. *. feature in
    (w +. (2. *. w)) *. d.Device.c_gate
  in
  let tf_nand = Gate.tf final_nand ~c_load:c_first_driver in
  let t_nand =
    Horowitz.delay ~input_ramp:predec_driver.Driver.output_ramp ~tf:tf_nand
      ~v_th_fraction:final_nand.Gate.v_th_fraction
  in
  (* Energy per access: one predecode line per group rises and one falls;
     two final NAND outputs switch. *)
  let e_predec =
    float_of_int n_groups
      *. ((c_predec_line *. vdd *. vdd) +. predec_driver.Driver.stage.Stage.energy)
  in
  let e_nand = 2. *. Gate.switching_energy final_nand ~c_load:c_first_driver in
  {
    p_n_select = float_of_int n_select;
    p_t_predecode = t_predecode;
    p_t_nand = t_nand;
    p_energy = e_predec +. e_nand;
    p_nand_leakage = final_nand.Gate.leakage;
    p_nand_area = final_nand.Gate.area;
    (* 4*n_groups predecode blocks. *)
    p_leakage =
      float_of_int (4 * n_groups)
      *. (predec_nand.Gate.leakage +. predec_driver.Driver.stage.Stage.leakage);
    p_area =
      float_of_int (4 * n_groups)
      *. (predec_nand.Gate.area +. predec_driver.Driver.stage.Stage.area);
    p_n_stages = 2 + predec_driver.Driver.n_stages;
  }

let line_driver ~periph ~area ~feature ~c_line ~r_line ?v_line_swing () =
  let v_line_swing =
    match v_line_swing with Some v -> v | None -> periph.Device.vdd
  in
  let drv =
    Driver.chain ~device:periph ~area ~feature ~w_n_first:(6. *. feature)
      ~r_wire:r_line ~c_wire:c_line ~v_swing:v_line_swing ~c_load:0. ()
  in
  {
    l_stage = drv.Driver.stage;
    (* The driver chain already includes line RC in its last-stage delay;
       keep an explicit distributed-flight term for the far end of the
       line. *)
    l_t_line = 0.38 *. r_line *. c_line;
    l_n_stages = drv.Driver.n_stages;
  }

(* Every sum keeps the one-piece decoder's association order, so the
   combination is bit-identical to designing the decoder whole. *)
let combine p l =
  let t_gate_drive = p.p_t_nand +. l.l_stage.Stage.delay in
  let t_line = l.l_t_line in
  (* Leakage and area: every row has a NAND + driver chain. *)
  let leakage =
    (p.p_n_select *. (p.p_nand_leakage +. l.l_stage.Stage.leakage))
    +. p.p_leakage
  in
  let area_total =
    (p.p_n_select *. (p.p_nand_area +. l.l_stage.Stage.area)) +. p.p_area
  in
  let delay = p.p_t_predecode +. t_gate_drive +. t_line in
  {
    stage =
      {
        Stage.delay;
        energy = p.p_energy +. l.l_stage.Stage.energy;
        leakage;
        area = area_total;
      };
    t_predecode = p.p_t_predecode;
    t_gate_drive;
    t_line;
    n_stages = p.p_n_stages + l.l_n_stages;
  }
