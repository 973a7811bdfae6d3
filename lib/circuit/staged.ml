open Cacti_tech

(* Per-spec constants of the analytical model, computed once per
   (technology, cell type, repeater-penalty) tuple and shared by every
   candidate organization of a design-space sweep.  Everything here is a
   pure function of its inputs, so evaluating a candidate through a staged
   record is bit-identical to recomputing the constants inline. *)

type t = {
  ram : Cell.ram_kind;
  is_dram : bool;
  tech : Technology.t;
  feature : float;
  cell : Cell.t;
  periph : Device.t;
  area : Area_model.t;
  wire_local : Wire.t;
  cell_w : float;
  cell_h : float;
  repeater : Repeater.t;
      (* semi-global H-tree repeater design under the spec's delay
         penalty: the single most expensive per-candidate recomputation
         (a spacing x sizing scan) in the unstaged evaluator *)
  t_port : float;
  ctl_inv : Gate.t;
  wr_drv : Gate.t;
  sense_by_deg : Sense_amp.t option array;
  mux_bl_by_deg : Mux.t option array;
  mux1_by_ndsam : Mux.t option array;
  mux2_by_ndsam : Mux.t option array;
}

let make_sense ~is_dram ~periph ~area ~feature ~cell_pitch deg =
  Sense_amp.make ~device:periph ~area ~feature
    ~cell_pitch:(if is_dram then 2. *. cell_pitch else cell_pitch)
    ~deg_bl_mux:(if is_dram then 1 else deg) ()

(* The output-mux degrees of the partition grid ({!Cacti_array.Org.ndsams});
   degrees outside the table fall back to an on-demand computation of the
   same pure expression, so staging them is invisible to the result. *)
let staged_ndsams = [ 1; 2; 3; 4; 6; 8; 12; 16 ]

let make ~tech ~ram ~max_repeater_delay_penalty () =
  let cell = Technology.cell tech ram in
  let periph = Technology.peripheral_device tech ram in
  let feature = Technology.feature_size tech in
  let area =
    Area_model.create ~feature_size:feature ~l_gate:periph.Device.l_phy
  in
  let is_dram = Cell.is_dram ram in
  let cell_w = Cell.width cell ~feature_size:feature in
  let cell_h = Cell.height cell ~feature_size:feature in
  let wire_local = Technology.wire tech Wire.Local in
  let repeater =
    Repeater.design ~device:periph ~area ~feature
      ~max_delay_penalty:max_repeater_delay_penalty
      ~wire:(Technology.wire tech Wire.Semi_global) ()
  in
  let t_port = 3. *. Technology.fo4 tech periph.Device.kind in
  let ctl_inv = Gate.inverter ~area periph ~w_n:(10. *. feature) in
  let wr_drv = Gate.inverter ~area periph ~w_n:(24. *. feature) in
  let degs = if is_dram then [ 1 ] else [ 1; 2; 4; 8 ] in
  (* Tables indexed by degree; [None] marks a degree outside the table. *)
  let table keys f =
    let a = Array.make (List.fold_left Int.max 0 keys + 1) None in
    List.iter (fun k -> a.(k) <- Some (f k)) keys;
    a
  in
  let sense_by_deg =
    table degs (make_sense ~is_dram ~periph ~area ~feature ~cell_pitch:cell_w)
  in
  let mux_bl_by_deg =
    table degs (fun d ->
        let s = Option.get sense_by_deg.(d) in
        Mux.pass_gate_mux ~device:periph ~area ~feature ~degree:d
          ~c_in_next:s.Sense_amp.c_input ())
  in
  let mux1_by_ndsam =
    table staged_ndsams (fun n ->
        Mux.pass_gate_mux ~device:periph ~area ~feature ~degree:n
          ~c_in_next:(20. *. feature *. periph.Device.c_gate) ())
  in
  let mux2_by_ndsam =
    table staged_ndsams (fun n ->
        Mux.pass_gate_mux ~device:periph ~area ~feature ~degree:n
          ~c_in_next:(30. *. feature *. periph.Device.c_gate) ())
  in
  {
    ram;
    is_dram;
    tech;
    feature;
    cell;
    periph;
    area;
    wire_local;
    cell_w;
    cell_h;
    repeater;
    t_port;
    ctl_inv;
    wr_drv;
    sense_by_deg;
    mux_bl_by_deg;
    mux1_by_ndsam;
    mux2_by_ndsam;
  }

let entry a k = if k >= 0 && k < Array.length a then a.(k) else None

let sense t ~deg_bl_mux =
  match entry t.sense_by_deg deg_bl_mux with
  | Some s -> s
  | None ->
      (* Unknown mux degree (not in the staged table): compute on demand;
         same expression as the staged entries, so still bit-identical. *)
      make_sense ~is_dram:t.is_dram ~periph:t.periph ~area:t.area
        ~feature:t.feature ~cell_pitch:t.cell_w deg_bl_mux

let mux_bl t ~deg_bl_mux =
  match entry t.mux_bl_by_deg deg_bl_mux with
  | Some m -> m
  | None ->
      Mux.pass_gate_mux ~device:t.periph ~area:t.area ~feature:t.feature
        ~degree:deg_bl_mux
        ~c_in_next:(sense t ~deg_bl_mux).Sense_amp.c_input ()

let mux1 t ~ndsam =
  match entry t.mux1_by_ndsam ndsam with
  | Some m -> m
  | None ->
      Mux.pass_gate_mux ~device:t.periph ~area:t.area ~feature:t.feature
        ~degree:ndsam
        ~c_in_next:(20. *. t.feature *. t.periph.Device.c_gate) ()

let mux2 t ~ndsam =
  match entry t.mux2_by_ndsam ndsam with
  | Some m -> m
  | None ->
      Mux.pass_gate_mux ~device:t.periph ~area:t.area ~feature:t.feature
        ~degree:ndsam
        ~c_in_next:(30. *. t.feature *. t.periph.Device.c_gate) ()
