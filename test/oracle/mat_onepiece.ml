(* The one-piece mat assembly that [Cacti_array.Mat.of_parts] was before
   it became [finish (base ...)], kept verbatim as the bit-level
   reference: the differential properties in test_array.ml compare every
   float field of the two mats, and the sweep-level check in
   test_cacti.ml rebuilds every evaluated candidate of a sweep through it.
   [eval] is the parent's per-candidate evaluation around it: subarray and
   decoder designed from scratch, no memo, no grouping. *)

open Cacti_tech
open Cacti_circuit
open Cacti_array
open Mat

let of_parts ~(staged : Staged.t) ~(org : Org.t) (g : geometry)
    ~(subarray : Subarray.t) ~(decoder : Decoder.t) =
  let { Staged.cell; periph; feature; is_dram; _ } = staged in
  let { g_rows_sub = rows_sub; g_cols_sub = cols_sub; g_horiz = horiz;
        g_vert = vert; g_out_bits = out_bits; g_sensed = sensed;
        g_sensed_per_access = _ } =
    g
  in
  let deg = if is_dram then 1 else org.Org.deg_bl_mux in
  let sense = Staged.sense staged ~deg_bl_mux:deg in
  let n_subarrays = horiz * vert in
  let active_cols = horiz * cols_sub in
  let n_sense_amps = sensed in
  let n_wordlines = rows_sub * vert in
  let t_row_path = decoder.Decoder.stage.Stage.delay in
  let t_wordline = decoder.Decoder.t_gate_drive +. decoder.Decoder.t_line in
  (* Bitline and sensing. *)
  let vdd_p = periph.Device.vdd in
  let t_bitline, t_sense, t_precharge, t_restore =
    match (subarray.Subarray.sram_bl, subarray.Subarray.dram_bl) with
    | Some bl, None ->
        ( bl.Bitline.t_read_develop,
          Cacti_circuit.Sense_amp.amplify sense ~signal:bl.Bitline.swing,
          bl.Bitline.t_precharge,
          0. )
    | None, Some bl ->
        ( bl.Bitline.t_charge_share,
          Cacti_circuit.Sense_amp.amplify sense ~signal:bl.Bitline.signal,
          bl.Bitline.t_precharge,
          bl.Bitline.t_restore )
    | _ -> assert false
  in
  (* Column path: bitline mux (SRAM), then the two Ndsam levels — all from
     the staged tables (same pure expressions as inline construction). *)
  let mux_bl = Staged.mux_bl staged ~deg_bl_mux:deg in
  let mux1 = Staged.mux1 staged ~ndsam:org.Org.ndsam_lev1 in
  let mux2 = Staged.mux2 staged ~ndsam:org.Org.ndsam_lev2 in
  let t_column_out =
    (if deg > 1 then mux_bl.Mux.delay else 0.)
    +. mux1.Mux.delay +. mux2.Mux.delay
  in
  (* Per-mat support circuitry that CACTI folds into every mat: write
     drivers on the output columns, address latches/receivers and the
     self-timed control block.  Modeled as inverter-equivalents. *)
  let ctl_inv = staged.Staged.ctl_inv in
  let wr_drv = staged.Staged.wr_drv in
  let n_ctl = 60 + (2 * Cacti_util.Floatx.clog2 (max 2 n_wordlines)) in
  let control_area =
    (float_of_int n_ctl *. ctl_inv.Gate.area)
    +. (float_of_int out_bits *. 2. *. wr_drv.Gate.area)
  in
  let control_leakage =
    (float_of_int n_ctl *. ctl_inv.Gate.leakage)
    +. (float_of_int out_bits *. 2. *. wr_drv.Gate.leakage)
  in
  let control_energy =
    float_of_int n_ctl *. 0.25
    *. Gate.switching_energy ctl_inv ~c_load:ctl_inv.Gate.c_in
  in
  (* Energies. *)
  let e_bl_activate_per_col, e_bl_write_per_col, e_pre_per_col =
    match (subarray.Subarray.sram_bl, subarray.Subarray.dram_bl) with
    | Some bl, None ->
        (bl.Bitline.e_read_per_column, bl.Bitline.e_write_per_column, 0.)
    | None, Some bl ->
        ( bl.Bitline.e_activate_per_column,
          bl.Bitline.e_write_per_column,
          bl.Bitline.e_precharge_per_column )
    | _ -> assert false
  in
  let sensed_per_access = if is_dram then active_cols else sensed in
  let e_row_activate =
    decoder.Decoder.stage.Stage.energy +. control_energy
    +. (float_of_int active_cols *. e_bl_activate_per_col)
    +. (float_of_int sensed_per_access *. sense.Sense_amp.energy)
  in
  let e_column_read =
    float_of_int out_bits
    *. ((if deg > 1 then mux_bl.Mux.e_per_output_bit else 0.)
       +. mux1.Mux.e_per_output_bit +. mux2.Mux.e_per_output_bit
       +. (0.5 *. 30. *. feature *. periph.Device.c_gate *. vdd_p *. vdd_p))
  in
  let e_column_write = float_of_int out_bits *. e_bl_write_per_col in
  let e_precharge = float_of_int active_cols *. e_pre_per_col in
  (* Leakage. *)
  let n_cells = rows_sub * vert * cols_sub * horiz in
  let leakage_cells =
    float_of_int n_cells *. cell.Cell.i_cell_leak *. cell.Cell.vdd_cell
  in
  let n_sa_total =
    if is_dram then active_cols * vert / vert else n_sense_amps
  in
  let leakage_periph =
    decoder.Decoder.stage.Stage.leakage
    +. (float_of_int n_sa_total *. sense.Sense_amp.leakage)
    +. (float_of_int out_bits
       *. (mux1.Mux.leakage +. mux2.Mux.leakage
          +. if deg > 1 then mux_bl.Mux.leakage else 0.))
  in
  let leakage = leakage_cells +. leakage_periph +. control_leakage in
  (* Geometry: decoder strip between the subarray halves; sense strip
     below. *)
  let core_w = float_of_int horiz *. subarray.Subarray.width in
  let core_h = float_of_int vert *. subarray.Subarray.height in
  let dec_strip_w = decoder.Decoder.stage.Stage.area /. core_h in
  let sa_area =
    (float_of_int n_sa_total *. sense.Sense_amp.area)
    +. (float_of_int out_bits
       *. (mux1.Mux.area_per_output_bit +. mux2.Mux.area_per_output_bit))
    +. float_of_int sensed
       *.
       (if deg > 1 then mux_bl.Mux.area_per_output_bit /. float_of_int deg
        else 0.)
  in
  let sa_strip_h = (sa_area +. control_area) /. core_w in
  let width = core_w +. dec_strip_w in
  let height = core_h +. sa_strip_h in
  {
    subarray;
    n_subarrays;
    horiz_subarrays = horiz;
    width;
    height;
    area = width *. height;
    decoder;
    sense;
    n_sense_amps = n_sa_total;
    active_cols;
    sensed_bits = sensed_per_access;
    out_bits;
    t_row_path;
    t_wordline;
    t_bitline;
    t_sense;
    t_column_out;
    t_precharge;
    t_restore;
    e_row_activate;
    e_column_read;
    e_column_write;
    e_precharge;
    leakage;
    leakage_cells;
  }


(* The per-candidate evaluation around [of_parts]: the subarray and the
   one-piece decoder designed from scratch for this candidate alone. *)
let eval ~(staged : Staged.t) ~(org : Org.t) (g : geometry) =
  let deg = if staged.Staged.is_dram then 1 else org.Org.deg_bl_mux in
  let subarray =
    Mat.subarray_of ~staged ~rows:g.g_rows_sub ~cols:g.g_cols_sub ~deg
  in
  if not (Subarray.viable subarray) then None
  else
    let horiz = g.g_horiz and vert = g.g_vert in
    let c_line = float_of_int horiz *. subarray.Subarray.c_wordline in
    let r_line = float_of_int horiz *. subarray.Subarray.r_wordline in
    let decoder =
      Decoder_onepiece.decoder ~periph:staged.Staged.periph
        ~area:staged.Staged.area ~feature:staged.Staged.feature
        ~wire:staged.Staged.wire_local
        ~n_select:(subarray.Subarray.rows * vert)
        ~strip_length:(float_of_int vert *. subarray.Subarray.height)
        ~c_line ~r_line ~v_line_swing:staged.Staged.cell.Cell.vpp ()
    in
    Some (of_parts ~staged ~org g ~subarray ~decoder)
