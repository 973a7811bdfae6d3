open Cacti_tech

type t = {
  wire : Wire.t;
  size : float;
  spacing : float;
  delay_per_m : float;
  energy_per_m : float;
  leakage_per_m : float;
  area_per_m : float;
}

(* Electricals of one repeater of NMOS width w (beta = 2). *)
let repeater_params (d : Device.t) w =
  let w_p = 2. *. w in
  let r = Device.r_sw_n d /. w in
  let c_in = (w +. w_p) *. d.c_gate in
  let c_self = (w +. w_p) *. d.c_drain in
  let leak = Device.leakage_power_inverter d ~w_n:w ~w_p in
  (r, c_in, c_self, leak)

let segment_delay (d : Device.t) (wire : Wire.t) w spacing =
  let r, c_in, c_self, _ = repeater_params d w in
  let c_w = wire.c_per_m *. spacing in
  let r_w = wire.r_per_m *. spacing in
  ignore d;
  (0.69 *. r *. (c_self +. c_w +. c_in))
  +. (0.69 *. r_w *. ((0.5 *. c_w) +. c_in))

let metrics_of (d : Device.t) (a : Area_model.t) (wire : Wire.t) w spacing =
  let _, c_in, c_self, leak = repeater_params d w in
  let delay_per_m = segment_delay d wire w spacing /. spacing in
  let vdd = d.Device.vdd in
  let energy_per_m =
    (wire.c_per_m +. ((c_in +. c_self) /. spacing)) *. vdd *. vdd
  in
  let leakage_per_m = leak /. spacing in
  let area_per_m =
    Area_model.gate_area a [ w; 2. *. w ] /. spacing
  in
  { wire; size = w; spacing; delay_per_m; energy_per_m; leakage_per_m; area_per_m }

let design ~device ~area ~feature ?(max_delay_penalty = 0.) ~wire () =
  let d = device in
  (* Analytical optimum as the scan center. *)
  let r0, c_in0, c_self0, _ = repeater_params d 1e-6 in
  let r0 = r0 *. 1e-6 (* Ω·m normalized back *) and c0 = (c_in0 +. c_self0) /. 1e-6 in
  let s_opt =
    sqrt (r0 *. wire.Wire.c_per_m /. (c0 *. wire.Wire.r_per_m))
  in
  let l_opt = sqrt (2. *. r0 *. c0 /. (wire.Wire.r_per_m *. wire.Wire.c_per_m)) in
  let candidates =
    List.concat_map
      (fun fs ->
        List.map
          (fun fl ->
            let w = max (3. *. feature) (s_opt *. fs) in
            let spacing = max (20e-6) (l_opt *. fl) in
            metrics_of d area wire w spacing)
          [ 0.6; 0.8; 1.0; 1.3; 1.7; 2.2; 3.0; 4.0 ])
      [ 0.2; 0.35; 0.5; 0.7; 1.0; 1.4; 2.0 ]
  in
  let best_delay =
    List.fold_left (fun acc c -> min acc c.delay_per_m) Float.infinity
      candidates
  in
  let allowed = best_delay *. (1. +. max_delay_penalty) in
  let feasible = List.filter (fun c -> c.delay_per_m <= allowed) candidates in
  List.fold_left
    (fun best c -> if c.energy_per_m < best.energy_per_m then c else best)
    (List.hd feasible) feasible

let drive t ~length =
  {
    Stage.delay = t.delay_per_m *. length;
    energy = t.energy_per_m *. length;
    leakage = t.leakage_per_m *. length;
    area = t.area_per_m *. length;
  }
