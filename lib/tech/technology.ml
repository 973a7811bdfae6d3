type t = {
  node : Node.t;
  wire_projection : Wire.projection;
}

let of_node ?(wire_projection = Wire.Conservative) node =
  { node; wire_projection }

let create ?wire_projection ~feature_size () =
  let nodes = Array.of_list Node.all in
  let n = Array.length nodes in
  let fmax = nodes.(0).Node.feature_size
  and fmin = nodes.(n - 1).Node.feature_size in
  if feature_size > fmax +. 1e-12 || feature_size < fmin -. 1e-12 then
    invalid_arg
      (Printf.sprintf
         "Technology.create: feature size %.1f nm outside covered range \
          [%.0f, %.0f] nm"
         (feature_size *. 1e9) (fmin *. 1e9) (fmax *. 1e9));
  (* Nodes are stored in decreasing feature size; find the bracketing pair. *)
  let rec find i =
    if i >= n - 1 then nodes.(n - 1)
    else
      let a = nodes.(i) and b = nodes.(i + 1) in
      if feature_size <= a.Node.feature_size +. 1e-12
         && feature_size >= b.Node.feature_size -. 1e-12
      then
        let t =
          (a.Node.feature_size -. feature_size)
          /. (a.Node.feature_size -. b.Node.feature_size)
        in
        Node.interpolate a b t
      else find (i + 1)
  in
  of_node ?wire_projection (find 0)

let at_nm ?wire_projection f_nm =
  create ?wire_projection ~feature_size:(f_nm *. 1e-9) ()

let feature_size t = t.node.Node.feature_size
let wire_projection t = t.wire_projection
let device t k = Node.device t.node k
let wire t k = Node.wire t.node t.wire_projection k
let cell t k = Node.cell t.node k

let peripheral_device t (ram : Cell.ram_kind) =
  match ram with
  | Sram | Lp_dram -> device t Hp_long_channel
  | Comm_dram -> device t Lstp

let fo4 t kind =
  let d = device t kind in
  (* Inverter with beta = 2 driving four copies of itself; Elmore with the
     canonical ln(2)-ish switching factor folded into r_sw_factor. *)
  let w_n = 1e-6 in
  let w_p = 2e-6 in
  let c_load = 4. *. ((w_n +. w_p) *. d.c_gate) in
  let c_self = (w_n +. w_p) *. d.c_drain in
  0.69 *. (Device.r_sw_n d /. w_n) *. (c_load +. c_self)

let table1 t =
  let f = feature_size t in
  let sram = cell t Sram and lp = cell t Lp_dram and comm = cell t Comm_dram in
  let cell_f2 c = Printf.sprintf "%.0fF^2" c.Cell.area_f2 in
  let volts v = Printf.sprintf "%.1f" v in
  let cap_ff c = Printf.sprintf "%.0f" (c.Cell.storage_cap /. 1e-15) in
  let ret_ms c = Printf.sprintf "%.2f" (c.Cell.retention_time /. 1e-3) in
  ignore f;
  [
    ("Cell area", cell_f2 sram, cell_f2 lp, cell_f2 comm);
    ( "Memory cell device type",
      "ITRS HP/Long-channel",
      "Intermediate oxide",
      "Conventional oxide" );
    ( "Peripheral/Global device type",
      "ITRS HP/Long-channel",
      "ITRS HP/Long-channel",
      "ITRS LSTP" );
    ("Bitline interconnect", "Copper", "Copper", "Tungsten");
    ("Back-end-of-line interconnect", "Copper", "Copper", "Copper");
    ( "Memory cell VDD (V)",
      volts sram.Cell.vdd_cell,
      volts lp.Cell.vdd_cell,
      volts comm.Cell.vdd_cell );
    ("DRAM storage capacitance (fF)", "N/A", cap_ff lp, cap_ff comm);
    ( "Boosted wordline voltage VPP (V)",
      "N/A",
      volts lp.Cell.vpp,
      volts comm.Cell.vpp );
    ("Refresh period (ms)", "N/A", ret_ms lp, ret_ms comm);
  ]
