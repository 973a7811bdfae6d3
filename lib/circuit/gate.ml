open Cacti_tech

type t = {
  device : Device.t;
  c_in : float;
  r_drive : float;
  c_self : float;
  leakage : float;
  area : float;
  v_th_fraction : float;
}

let beta_default = 2.0

let v_th_fraction (d : Device.t) = d.v_th /. d.vdd

let inverter ?(beta = beta_default) ~area (d : Device.t) ~w_n =
  let w_p = beta *. w_n in
  {
    device = d;
    c_in = (w_n +. w_p) *. d.c_gate;
    r_drive =
      Cacti_util.Floatx.max (Device.r_sw_n d /. w_n) (Device.r_sw_p d /. w_p);
    c_self = (w_n +. w_p) *. d.c_drain;
    leakage = Device.leakage_power_inverter d ~w_n ~w_p;
    area = Area_model.gate_area area [ w_n; w_p ];
    v_th_fraction = v_th_fraction d;
  }

let nand ?(beta = beta_default) ~area ~fan_in (d : Device.t) ~w_n =
  assert (fan_in >= 1);
  let k = float_of_int fan_in in
  (* NMOS stack upsized by fan-in so series resistance matches a single
     device of width w_n. *)
  let w_n_stack = w_n *. k in
  let w_p = beta *. w_n in
  {
    device = d;
    c_in = ((w_n_stack *. d.c_gate) +. (w_p *. d.c_gate));
    r_drive =
      Cacti_util.Floatx.max (Device.r_sw_n d /. w_n) (Device.r_sw_p d /. w_p);
    c_self = ((w_n_stack +. (k *. w_p)) *. d.c_drain);
    leakage =
      Device.leakage_power_inverter d ~w_n:(w_n_stack /. k) ~w_p:(k *. w_p);
    area =
      Area_model.gate_area area
        (List.init fan_in (fun _ -> w_n_stack) @ List.init fan_in (fun _ -> w_p));
    v_th_fraction = v_th_fraction d;
  }

let tf g ~c_load = 0.69 *. g.r_drive *. (g.c_self +. c_load)

let switching_energy g ~c_load =
  (g.c_self +. c_load) *. g.device.Device.vdd *. g.device.Device.vdd
