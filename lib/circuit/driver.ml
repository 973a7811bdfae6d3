open Cacti_tech

type t = {
  stage : Stage.t;
  output_ramp : float;
  n_stages : int;
  w_n_last : float;
}

let min_w_n ~feature = 3. *. feature

let chain ~device ~area ~feature ?(beta = Gate.beta_default) ?(input_ramp = 0.)
    ?w_n_first ?(r_wire = 0.) ?(c_wire = 0.) ?v_swing ~c_load () =
  let d = device in
  let w_first = match w_n_first with Some w -> w | None -> min_w_n ~feature in
  let c_total = c_wire +. c_load in
  let first = Gate.inverter ~beta ~area d ~w_n:w_first in
  let path_effort = Cacti_util.Floatx.max 1.0 (c_total /. first.Gate.c_in) in
  let n = Logical_effort.n_stages ~path_effort in
  let f = Logical_effort.stage_effort ~path_effort ~n in
  (* Build the chain of widths: geometric ramp-up by f. *)
  let widths = List.init n (fun i -> w_first *. (f ** float_of_int i)) in
  let gates = List.map (fun w_n -> Gate.inverter ~beta ~area d ~w_n) widths in
  let vdd = d.Device.vdd in
  let v_swing = match v_swing with Some v -> v | None -> vdd in
  let rec go ramp acc_delay acc_energy acc_leak acc_area = function
    | [] -> (acc_delay, acc_energy, acc_leak, acc_area, ramp)
    | [ (g : Gate.t) ] ->
        (* Last stage drives the wire + load. *)
        let tf =
          (0.69 *. g.r_drive *. (g.c_self +. c_wire +. c_load))
          +. (0.69 *. r_wire *. ((0.5 *. c_wire) +. c_load))
        in
        let delay =
          Horowitz.delay ~input_ramp:ramp ~tf ~v_th_fraction:g.v_th_fraction
        in
        let energy =
          (g.c_self *. vdd *. vdd) +. ((c_wire +. c_load) *. v_swing *. v_swing)
        in
        ( acc_delay +. delay,
          acc_energy +. energy,
          acc_leak +. g.leakage,
          acc_area +. g.area,
          Horowitz.output_ramp ~tf )
    | (g : Gate.t) :: ((next : Gate.t) :: _ as rest) ->
        let tf = Gate.tf g ~c_load:next.c_in in
        let delay =
          Horowitz.delay ~input_ramp:ramp ~tf ~v_th_fraction:g.v_th_fraction
        in
        let energy = (g.c_self +. next.c_in) *. vdd *. vdd in
        go
          (Horowitz.output_ramp ~tf)
          (acc_delay +. delay) (acc_energy +. energy) (acc_leak +. g.leakage)
          (acc_area +. g.area) rest
  in
  let delay, energy, leakage, area_total, output_ramp =
    go input_ramp 0. 0. 0. 0. gates
  in
  let w_n_last = List.nth widths (n - 1) in
  {
    stage = { Stage.delay; energy; leakage; area = area_total };
    output_ramp;
    n_stages = n;
    w_n_last;
  }
