open Cacti_tech

type t = {
  c_input : float;
  c_latch : float;
  gm_eff : float;
  vdd : float;
  energy : float;
  leakage : float;
  area : float;
}

let amplify t ~signal =
  let signal = Cacti_util.Floatx.clamp ~lo:1e-3 ~hi:(t.vdd /. 2.) signal in
  t.c_latch /. t.gm_eff *. log (t.vdd /. 2. /. signal)

let make ~device ~area ~feature ~cell_pitch ~deg_bl_mux () =
  let d = device in
  (* Cross-coupled pair + precharge/equalize + enable: model as four devices
     of 8 F and two of 4 F. *)
  let w_pair = 16. *. feature in
  let w_small = 4. *. feature in
  let c_latch =
    (4. *. w_pair *. d.Device.c_gate) +. (2. *. w_pair *. d.Device.c_drain)
  in
  let c_input = (w_pair *. d.Device.c_drain) +. (w_small *. d.Device.c_drain) in
  (* The latch starts amplifying near the trip point where the pair is only
     partially on; an effective-gm derating captures that plus enable
     overhead. *)
  let gm_eff = 0.3 *. Device.gm_n d *. w_pair in
  let vdd = d.Device.vdd in
  let energy = c_latch *. vdd *. vdd in
  let leakage =
    Device.leakage_power_inverter d ~w_n:w_pair ~w_p:w_pair *. 0.5
  in
  let strip_height = float_of_int deg_bl_mux *. cell_pitch in
  let a =
    Area_model.gate_area area
      ~max_height:(Cacti_util.Floatx.max strip_height (8. *. feature))
      [ w_pair; w_pair; w_pair; w_pair; w_small; w_small ]
  in
  { c_input; c_latch; gm_eff; vdd; energy; leakage; area = a }
