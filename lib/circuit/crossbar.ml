open Cacti_tech

type t = {
  delay : float;
  e_per_transfer : float;
  leakage : float;
  area : float;
}

let design ~device ~area ~feature ~wire ?(max_repeater_delay_penalty = 0.)
    ~n_in ~n_out ~bits ~span () =
  let d = device in
  let rep =
    Repeater.design ~device:d ~area ~feature
      ~max_delay_penalty:max_repeater_delay_penalty ~wire ()
  in
  (* One input wire crosses the full span and sees a crosspoint junction per
     output port; symmetric for output wires. *)
  let w_pass = 8. *. feature in
  let c_crosspoint = w_pass *. d.Device.c_drain in
  let wire_metrics = Repeater.drive rep ~length:span in
  let c_crosspoints_in = float_of_int n_out *. c_crosspoint in
  let c_crosspoints_out = float_of_int n_in *. c_crosspoint in
  let r_drv = Device.r_sw_n d /. (16. *. feature) in
  let t_crosspoints =
    0.69 *. r_drv *. (c_crosspoints_in +. c_crosspoints_out)
  in
  let delay = (2. *. wire_metrics.Stage.delay) +. t_crosspoints in
  let vdd = d.Device.vdd in
  let activity = 0.5 in
  let e_per_bit =
    activity
    *. ((2. *. wire_metrics.Stage.energy)
       +. ((c_crosspoints_in +. c_crosspoints_out) *. vdd *. vdd))
  in
  let e_per_transfer = float_of_int bits *. e_per_bit in
  let n_wires = bits * (n_in + n_out) in
  let leakage =
    float_of_int n_wires
    *. (wire_metrics.Stage.leakage
       +. Device.leakage_power_inverter d ~w_n:(8. *. feature)
            ~w_p:(16. *. feature))
  in
  let pitch = wire.Wire.geometry.Wire.pitch in
  let area_xbar =
    float_of_int (bits * n_in) *. pitch *. float_of_int (bits * n_out)
    *. pitch
  in
  { delay; e_per_transfer; leakage; area = area_xbar }
