open Cacti_tech
open Cacti_circuit

type t = {
  subarray : Subarray.t;
  n_subarrays : int;
  horiz_subarrays : int;
  width : float;
  height : float;
  area : float;
  decoder : Decoder.t;
  sense : Sense_amp.t;
  n_sense_amps : int;
  active_cols : int;
  sensed_bits : int;
  out_bits : int;
  t_row_path : float;
  t_wordline : float;
  t_bitline : float;
  t_sense : float;
  t_column_out : float;
  t_precharge : float;
  t_restore : float;
  e_row_activate : float;
  e_column_read : float;
  e_column_write : float;
  e_precharge : float;
  leakage : float;
  leakage_cells : float;
}

let exact_div_f num den =
  let q = num /. den in
  let r = Float.round q in
  if r >= 1. && Float.abs (q -. r) < 1e-9 then Some (int_of_float r) else None

let exact_div num den = if den > 0 && num mod den = 0 then Some (num / den) else None

type geometry = {
  g_rows_sub : int;
  g_cols_sub : int;
  g_horiz : int;
  g_vert : int;
  g_out_bits : int;
  g_sensed : int;
  g_sensed_per_access : int;
}

let classify ~spec ~(org : Org.t) =
  let open Org in
  let { Array_spec.ram; n_rows; row_bits; output_bits; page_bits; _ } = spec in
  let is_dram = Cell.is_dram ram in
  let ( let* ) o f =
    match o with None -> Error `Geometry | Some v -> f v
  in
  let* rows_sub =
    exact_div_f (float_of_int n_rows) (float_of_int org.ndbl *. org.nspd)
  in
  let* cols_sub =
    exact_div_f (float_of_int row_bits *. org.nspd) (float_of_int org.ndwl)
  in
  if rows_sub < 16 || rows_sub > 4096 || cols_sub < 16 || cols_sub > 8192 then
    Error `Geometry
  else
    let horiz = Int.min org.ndwl 2 and vert = Int.min org.ndbl 2 in
    let mats_x = Org.mats_x org in
    let* bits_per_mat = exact_div output_bits mats_x in
    let* sensed =
      exact_div (horiz * cols_sub) (if is_dram then 1 else org.deg_bl_mux)
    in
    let* out_bits = exact_div sensed (org.ndsam_lev1 * org.ndsam_lev2) in
    if out_bits <> bits_per_mat then Error `Geometry
    else
      let sensed_per_access = if is_dram then horiz * cols_sub else sensed in
      (* Main-memory page constraint: sense amps of the activated slice. *)
      let page_ok =
        match page_bits with
        | None -> true
        | Some p -> mats_x * sensed_per_access = p
      in
      if not page_ok then Error `Page
      else
        Ok
          {
            g_rows_sub = rows_sub;
            g_cols_sub = cols_sub;
            g_horiz = horiz;
            g_vert = vert;
            g_out_bits = out_bits;
            g_sensed = sensed;
            g_sensed_per_access = sensed_per_access;
          }

let geometry ~spec ~org = Result.to_option (classify ~spec ~org)

(* Hierarchical screen, factored into a reusable tree.

   The flat screen over [Org.candidates] runs [classify] ~63k times; the
   hierarchical walk hoists each tiling check to the outermost loop level
   whose dimensions determine it and bulk-counts pruned subtrees.  The key
   further observation is that only ONE check depends on the spec's
   [n_rows]: the rows-per-subarray division (and its 16..4096 bound).
   Everything else — bits-per-mat (per ndwl), columns-per-subarray (per
   ndwl x nspd), the sensing/mux-matching/page checks (per ndwl x nspd x
   deg) — is a pure function of [row_bits], [output_bits], [page_bits] and
   the cell kind.  So the screen splits into a rows-independent
   {!screen_tree} built once, and a cheap {!screen_of_tree} instantiation
   per [n_rows] that re-runs only the ~ndbl x nspd row divisions.  This
   both accelerates a cold screen and lets {!Cacti_core.Solve_cache} reuse
   the tree across specs that differ along the size / tech-node axes.

   Equivalence with the flat screen: every hoisted check maps to
   [`Geometry] in [classify] (the counts are order-independent because all
   structural checks yield [`Geometry] — in particular the joint
   rows/cols bound is a commutative conjunction, so splitting it between
   build and instantiation preserves the count), and [`Page] is only ever
   decided at a leaf where all geometry checks passed, exactly as in the
   flat screen.  Survivors are emitted in [Org.candidates] order. *)

type deg_node =
  | Deg_fail
  | Deg of {
      dn_deg : int;
      dn_page_ok : bool;
      dn_tmpl : geometry;
          (* rows-independent template: [g_rows_sub] and [g_vert] are 0
             and are filled in at instantiation *)
      dn_pairs : (int * int) list;
          (* surviving (ndsam_lev1, ndsam_lev2) pairs, in grid order *)
      dn_n_pairs : int;
    }

type nspd_node = Nspd_fail | Nspd of { nn_degs : deg_node array }

type ndwl_node = Ndwl_fail | Ndwl of { wn_nspds : nspd_node array }

type screen_tree = {
  st_ndwls : (int * ndwl_node) array;
  st_ndbls : int array;
  st_nspds : float array;
  st_n_total : int;
  st_leaves_per_ndwl : int;
  st_leaves_per_nspd : int;
  st_leaves_per_deg : int;
}

let screen_key ?(max_ndwl = 64) ?(max_ndbl = 64) ~spec () =
  let { Array_spec.ram; row_bits; output_bits; page_bits; _ } = spec in
  Printf.sprintf "%s|%d|%d|%s|%d|%d"
    (Cell.ram_kind_to_string ram)
    row_bits output_bits
    (match page_bits with None -> "-" | Some p -> string_of_int p)
    max_ndwl max_ndbl

let screen_tree ?(max_ndwl = 64) ?(max_ndbl = 64) ~spec () =
  let { Array_spec.ram; row_bits; output_bits; page_bits; _ } = spec in
  let is_dram = Cell.is_dram ram in
  let ndwls = Org.pow2s max_ndwl and ndbls = Org.pow2s max_ndbl in
  let nspds = Org.nspds
  and degs = Org.bl_muxes ~dram:is_dram
  and ndsams = Org.ndsams in
  let n_ns = List.length ndsams in
  let leaves_per_deg = n_ns * n_ns in
  let leaves_per_nspd = List.length degs * leaves_per_deg in
  let leaves_per_ndwl =
    List.length ndbls * List.length nspds * leaves_per_nspd
  in
  let n_total = List.length ndwls * leaves_per_ndwl in
  let f_row_bits = float_of_int row_bits in
  let ndwl_entry ndwl =
    let mats_x = Int.max 1 (ndwl / 2) in
    let horiz = Int.min ndwl 2 in
    match exact_div output_bits mats_x with
    | None -> (ndwl, Ndwl_fail)
    | Some bits_per_mat ->
        let nspd_node nspd =
          match exact_div_f (f_row_bits *. nspd) (float_of_int ndwl) with
          | None -> Nspd_fail
          | Some cols_sub when cols_sub < 16 || cols_sub > 8192 -> Nspd_fail
          | Some cols_sub ->
              let deg_node deg =
                let eff_deg = if is_dram then 1 else deg in
                match exact_div (horiz * cols_sub) eff_deg with
                | None -> Deg_fail
                | Some sensed ->
                    (* Checks 6+7 of [classify] combine to
                       [ns1 * ns2 * bits_per_mat = sensed]. *)
                    let target =
                      if bits_per_mat > 0 && sensed mod bits_per_mat = 0 then
                        sensed / bits_per_mat
                      else -1
                    in
                    if target < 0 then Deg_fail
                    else
                      let sensed_per_access =
                        if is_dram then horiz * cols_sub else sensed
                      in
                      let page_ok =
                        match page_bits with
                        | None -> true
                        | Some p -> mats_x * sensed_per_access = p
                      in
                      let pairs =
                        List.concat_map
                          (fun ns1 ->
                            List.filter_map
                              (fun ns2 ->
                                if ns1 * ns2 = target then Some (ns1, ns2)
                                else None)
                              ndsams)
                          ndsams
                      in
                      Deg
                        {
                          dn_deg = deg;
                          dn_page_ok = page_ok;
                          dn_tmpl =
                            {
                              g_rows_sub = 0;
                              g_cols_sub = cols_sub;
                              g_horiz = horiz;
                              g_vert = 0;
                              g_out_bits = bits_per_mat;
                              g_sensed = sensed;
                              g_sensed_per_access = sensed_per_access;
                            };
                          dn_pairs = pairs;
                          dn_n_pairs = List.length pairs;
                        }
              in
              Nspd { nn_degs = Array.of_list (List.map deg_node degs) }
        in
        (ndwl, Ndwl { wn_nspds = Array.of_list (List.map nspd_node nspds) })
  in
  {
    st_ndwls = Array.of_list (List.map ndwl_entry ndwls);
    st_ndbls = Array.of_list ndbls;
    st_nspds = Array.of_list nspds;
    st_n_total = n_total;
    st_leaves_per_ndwl = leaves_per_ndwl;
    st_leaves_per_nspd = leaves_per_nspd;
    st_leaves_per_deg = leaves_per_deg;
  }

let screen_of_tree (tree : screen_tree) ~n_rows =
  let n_geometry = ref 0 and n_page = ref 0 in
  let acc = ref [] in
  let f_rows = float_of_int n_rows in
  Array.iter
    (fun (ndwl, node) ->
      match node with
      | Ndwl_fail -> n_geometry := !n_geometry + tree.st_leaves_per_ndwl
      | Ndwl { wn_nspds } ->
          Array.iter
            (fun ndbl ->
              let vert = Int.min ndbl 2 in
              let f_ndbl = float_of_int ndbl in
              Array.iteri
                (fun si nspd ->
                  match wn_nspds.(si) with
                  | Nspd_fail ->
                      n_geometry := !n_geometry + tree.st_leaves_per_nspd
                  | Nspd { nn_degs } -> (
                      match exact_div_f f_rows (f_ndbl *. nspd) with
                      | Some rows_sub when rows_sub >= 16 && rows_sub <= 4096
                        ->
                          Array.iter
                            (fun dn ->
                              match dn with
                              | Deg_fail ->
                                  n_geometry :=
                                    !n_geometry + tree.st_leaves_per_deg
                              | Deg
                                  {
                                    dn_deg;
                                    dn_page_ok;
                                    dn_tmpl;
                                    dn_pairs;
                                    dn_n_pairs;
                                  } ->
                                  n_geometry :=
                                    !n_geometry
                                    + (tree.st_leaves_per_deg - dn_n_pairs);
                                  if not dn_page_ok then
                                    n_page := !n_page + dn_n_pairs
                                  else
                                    let g =
                                      {
                                        dn_tmpl with
                                        g_rows_sub = rows_sub;
                                        g_vert = vert;
                                      }
                                    in
                                    List.iter
                                      (fun (ndsam_lev1, ndsam_lev2) ->
                                        acc :=
                                          ( {
                                              Org.ndwl;
                                              ndbl;
                                              nspd;
                                              deg_bl_mux = dn_deg;
                                              ndsam_lev1;
                                              ndsam_lev2;
                                            },
                                            g )
                                          :: !acc)
                                      dn_pairs)
                            nn_degs
                      | _ ->
                          n_geometry := !n_geometry + tree.st_leaves_per_nspd))
                tree.st_nspds)
            tree.st_ndbls)
    tree.st_ndwls;
  (List.rev !acc, tree.st_n_total, !n_geometry, !n_page)

let screen ?max_ndwl ?max_ndbl ~spec () =
  screen_of_tree
    (screen_tree ?max_ndwl ?max_ndbl ~spec ())
    ~n_rows:spec.Array_spec.n_rows

let staged_of_spec (spec : Array_spec.t) =
  Staged.make ~tech:spec.Array_spec.tech ~ram:spec.Array_spec.ram
    ~max_repeater_delay_penalty:spec.Array_spec.max_repeater_delay_penalty ()

(* The subarray and decoder sub-stages read only the staged constants
   fixed by the cell kind, the feature size and the wire projection (the
   remaining spec fields — n_rows, output_bits, sleep_tx, repeater
   penalty — enter only at the classify screen or the bank level).  This
   salt names them, so a (salt, dims) key identifies a sub-stage design
   across specs. *)
let fingerprint_salt ~spec =
  Printf.sprintf "%s|%h|%s"
    (Cell.ram_kind_to_string spec.Array_spec.ram)
    (Technology.feature_size spec.Array_spec.tech)
    (match Technology.wire_projection spec.Array_spec.tech with
    | Wire.Aggressive -> "a"
    | Wire.Conservative -> "c")

(* The mat evaluation is split along what its inputs share.  The two
   expensive sub-stages are the subarray (bitline RC + cell geometry, a
   function of (rows, cols, deg)) and the row decoder, itself two halves:
   the predecode (a function of (rows, vert)) and the wordline driver (a
   function of (cols, horiz)).  On top of them, [base] computes everything
   a (geometry, degree) pair fixes — the candidates of one screen leaf,
   which differ only in their Ndsam pair — and [finish] adds the two
   output-mux levels.  [make_staged] instantiates the sub-stages directly;
   the sweep supplies memoizing providers and resolves [base] once per run
   of equal (geometry, degree).  Every path runs the exact same
   expressions on the exact same float inputs, so they are
   bit-identical. *)

let subarray_of ~(staged : Staged.t) ~rows ~cols ~deg =
  (* Sense amplifiers first (their input loading feeds the bitline). *)
  let sense = Staged.sense staged ~deg_bl_mux:deg in
  Subarray.make ~tech:staged.Staged.tech ~ram:staged.Staged.ram ~rows ~cols
    ~c_sense_input:(sense.Sense_amp.c_input /. float_of_int deg)

(* Row decoder: one strip serving all wordlines of the mat; the selected
   wordline spans the horizontal subarrays. *)
let predecode_of ~(staged : Staged.t) (subarray : Subarray.t) ~vert =
  Decoder.predecode ~periph:staged.Staged.periph ~area:staged.Staged.area
    ~feature:staged.Staged.feature ~wire:staged.Staged.wire_local
    ~n_select:(subarray.Subarray.rows * vert)
    ~strip_length:(float_of_int vert *. subarray.Subarray.height)
    ()

let line_driver_of ~(staged : Staged.t) (subarray : Subarray.t) ~horiz =
  let c_line = float_of_int horiz *. subarray.Subarray.c_wordline in
  let r_line = float_of_int horiz *. subarray.Subarray.r_wordline in
  Decoder.line_driver ~periph:staged.Staged.periph ~area:staged.Staged.area
    ~feature:staged.Staged.feature ~c_line ~r_line
    ~v_line_swing:staged.Staged.cell.Cell.vpp ()

let eff_deg ~(staged : Staged.t) (org : Org.t) =
  if staged.Staged.is_dram then 1 else org.Org.deg_bl_mux

type base = {
  b_mat : t;
      (* every field the Ndsam pair does not touch; [t_column_out],
         [e_column_read], [leakage], [height] and [area] are 0 *)
  b_t_col_bl : float;  (* bitline-mux delay; 0 when deg = 1 *)
  b_e_col_bl : float;  (* bitline-mux energy per output bit *)
  b_e_col_out : float;  (* output drive energy per output bit *)
  b_leak_bl : float;  (* bitline-mux leakage per output bit *)
  b_leak_periph : float;  (* decoder + sense-amp leakage *)
  b_control_leakage : float;
  b_control_area : float;
  b_sa_area_sense : float;  (* sense-amp part of the sense strip *)
  b_sa_area_bl : float;  (* bitline-mux part of the sense strip *)
  b_core_w : float;
  b_core_h : float;
}

let base ~(staged : Staged.t) ~deg (g : geometry) ~(subarray : Subarray.t)
    ~(decoder : Decoder.t) =
  let { Staged.cell; periph; feature; is_dram; _ } = staged in
  let { g_rows_sub = rows_sub; g_cols_sub = cols_sub; g_horiz = horiz;
        g_vert = vert; g_out_bits = out_bits; g_sensed = sensed;
        g_sensed_per_access = _ } =
    g
  in
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
  (* Column path: the bitline mux (SRAM) here, the two Ndsam levels in
     [finish] — all from the staged tables (same pure expressions as
     inline construction). *)
  let mux_bl = Staged.mux_bl staged ~deg_bl_mux:deg in
  (* Per-mat support circuitry that CACTI folds into every mat: write
     drivers on the output columns, address latches/receivers and the
     self-timed control block.  Modeled as inverter-equivalents. *)
  let ctl_inv = staged.Staged.ctl_inv in
  let wr_drv = staged.Staged.wr_drv in
  let n_ctl = 60 + (2 * Cacti_util.Floatx.clog2 (Int.max 2 n_wordlines)) in
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
  (* Geometry: decoder strip between the subarray halves; sense strip
     below. *)
  let core_w = float_of_int horiz *. subarray.Subarray.width in
  let core_h = float_of_int vert *. subarray.Subarray.height in
  let dec_strip_w = decoder.Decoder.stage.Stage.area /. core_h in
  let width = core_w +. dec_strip_w in
  {
    b_mat =
      {
        subarray;
        n_subarrays;
        horiz_subarrays = horiz;
        width;
        height = 0.;
        area = 0.;
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
        t_column_out = 0.;
        t_precharge;
        t_restore;
        e_row_activate;
        e_column_read = 0.;
        e_column_write;
        e_precharge;
        leakage = 0.;
        leakage_cells;
      };
    b_t_col_bl = (if deg > 1 then mux_bl.Mux.delay else 0.);
    b_e_col_bl = (if deg > 1 then mux_bl.Mux.e_per_output_bit else 0.);
    b_e_col_out = 0.5 *. 30. *. feature *. periph.Device.c_gate *. vdd_p *. vdd_p;
    b_leak_bl = (if deg > 1 then mux_bl.Mux.leakage else 0.);
    b_leak_periph =
      decoder.Decoder.stage.Stage.leakage
      +. (float_of_int n_sa_total *. sense.Sense_amp.leakage);
    b_control_leakage = control_leakage;
    b_control_area = control_area;
    b_sa_area_sense = float_of_int n_sa_total *. sense.Sense_amp.area;
    b_sa_area_bl =
      float_of_int sensed
      *. (if deg > 1 then mux_bl.Mux.area_per_output_bit /. float_of_int deg
          else 0.);
    b_core_w = core_w;
    b_core_h = core_h;
  }

(* Every sum keeps the one-piece assembly's association order: the base
   carries the partial sums that precede the Ndsam terms. *)
let finish ~(staged : Staged.t) (b : base) ~ndsam_lev1 ~ndsam_lev2 =
  let m = b.b_mat in
  let mux1 = Staged.mux1 staged ~ndsam:ndsam_lev1 in
  let mux2 = Staged.mux2 staged ~ndsam:ndsam_lev2 in
  let f_out_bits = float_of_int m.out_bits in
  let t_column_out = b.b_t_col_bl +. mux1.Mux.delay +. mux2.Mux.delay in
  let e_column_read =
    f_out_bits
    *. (b.b_e_col_bl +. mux1.Mux.e_per_output_bit
       +. mux2.Mux.e_per_output_bit +. b.b_e_col_out)
  in
  let leakage_periph =
    b.b_leak_periph
    +. (f_out_bits *. (mux1.Mux.leakage +. mux2.Mux.leakage +. b.b_leak_bl))
  in
  let leakage = m.leakage_cells +. leakage_periph +. b.b_control_leakage in
  let sa_area =
    b.b_sa_area_sense
    +. (f_out_bits
       *. (mux1.Mux.area_per_output_bit +. mux2.Mux.area_per_output_bit))
    +. b.b_sa_area_bl
  in
  let sa_strip_h = (sa_area +. b.b_control_area) /. b.b_core_w in
  let height = b.b_core_h +. sa_strip_h in
  {
    m with
    height;
    area = m.width *. height;
    t_column_out;
    e_column_read;
    leakage;
  }

let eval_base ~(staged : Staged.t) ~sub_of ~dec_of ~deg (g : geometry) =
  let subarray = sub_of ~rows:g.g_rows_sub ~cols:g.g_cols_sub ~deg in
  if not (Subarray.viable subarray) then None
  else
    let decoder = dec_of subarray ~horiz:g.g_horiz ~vert:g.g_vert in
    Some (base ~staged ~deg g ~subarray ~decoder)

let make_staged ~(staged : Staged.t) ~spec ~(org : Org.t) () =
  match geometry ~spec ~org with
  | None -> None
  | Some g -> (
      let dec_of sub ~horiz ~vert =
        Decoder.combine
          (predecode_of ~staged sub ~vert)
          (line_driver_of ~staged sub ~horiz)
      in
      match
        eval_base ~staged ~sub_of:(subarray_of ~staged) ~dec_of
          ~deg:(eff_deg ~staged org) g
      with
      | None -> None
      | Some b ->
          Some
            (finish ~staged b ~ndsam_lev1:org.Org.ndsam_lev1
               ~ndsam_lev2:org.Org.ndsam_lev2))
