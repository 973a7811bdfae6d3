open Cacti_tech
open Cacti_circuit

(* Structure-of-arrays batch store for the staged solver.

   The hierarchical screen's surviving candidates are flattened into
   columns: one float64 Bigarray per geometry/organization parameter the
   bank-level formulas consume, plus result columns for the lower bounds
   and every final bank metric.  The evaluation loop in
   {!Cacti_array.Bank} then runs branch-free float math over chunked
   column ranges instead of allocating per-candidate closures and
   records; a surviving candidate only materializes into a [Bank.t] once,
   after the whole sweep.

   All parameter columns store [float_of_int] of exact integer quantities
   well inside the 2^53 mantissa, and all result columns round-trip IEEE
   float64 values losslessly, so a bank read back out of the columns is
   bit-identical to [Bank.evaluate] of the same candidate. *)

type col = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

(* Bank-level metrics of one candidate, as a flat all-float record (no
   boxing: OCaml unboxes float-only records).  This is the full output of
   the bank assembly minus the fields recoverable from (spec, org, mat);
   the DRAM interface timings are 0 for SRAM, where they are never read. *)
type metrics = {
  m_width : float;
  m_height : float;
  m_area : float;
  m_area_efficiency : float;
  m_t_access : float;
  m_t_random_cycle : float;
  m_t_interleave : float;
  m_e_read : float;
  m_e_write : float;
  m_e_activate : float;
  m_e_precharge : float;
  m_p_leakage : float;
  m_p_refresh : float;
  m_t_rcd : float;
  m_t_cas : float;
  m_t_ras : float;
  m_t_rp : float;
  m_t_rc : float;
  m_t_rrd : float;
}

let n_metric_cols = 19

(* Candidate status bytes written by the evaluation loop. *)
let st_pending = '\000'
let st_ok = '\001'
let st_area_pruned = '\002'
let st_bound_pruned = '\003'
let st_nonviable = '\004'
let st_nonfinite = '\005'
let st_raised = '\006'

type t = {
  n : int;
  orgs : Org.t array;
  geos : Mat.geometry array;
  eff_deg : int array;  (** effective bitline-mux degree (1 for DRAM) *)
  f_n_ctl : col;  (** control-block inverter count *)
  f_out_bits : col;
  f_n_mats : col;
  f_n_sa : col;  (** sense amps per mat *)
  f_wspan : col;  (** bank width floor, cells *)
  f_hspan : col;  (** bank height floor, cells *)
  f_line_cells : col;  (** wordline span, cells *)
  f_rows : col;  (** rows per subarray *)
  f_sensed_pa : col;  (** columns sensed per access *)
  f_mats_x : col;  (** active mats *)
  b_area : col;  (** result: area lower bound *)
  b_time : col;  (** result: access-time lower bound *)
  b_energy : col;  (** result: read-energy lower bound *)
  res : col array;
      (** result: [n_metric_cols] metric columns, in [metrics] field
          order (an array of small per-metric columns rather than one
          [n]x19 matrix: block allocations past the malloc mmap
          threshold are returned to the OS on free, so a fresh matrix
          per sweep would repay its page faults every solve) *)
  status : Bytes.t;
}

let fcol n = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n

(* [Array.of_list] stays on purpose.  When the first survivor is young
   and the array is longer than 256 words, [caml_make_vect] forces a
   minor collection, so one runs before each sweep.  A scratch build that
   filled arrays made from an immediate instead cut a perfbench
   solve_batch cycle from 475-484 minor collections to 71-74 and
   solve_bench's promoted words per evaluated candidate from 29.3 to 23.5
   (Gc.quick_stat, seed 1), but no cycle got faster and the process's
   peak RSS rose from 39 to 46-49 MB: each collection then waits for the
   16 MB minor heap to fill, so all of it gets touched. *)
let build ?(cancel = Cacti_util.Cancel.never) ~is_dram survivors =
  let orgs = Array.of_list (List.map fst survivors) in
  let geos = Array.of_list (List.map snd survivors) in
  let n = Array.length orgs in
  let t =
    {
      n;
      orgs;
      geos;
      eff_deg = Array.make n 1;
      f_n_ctl = fcol n;
      f_out_bits = fcol n;
      f_n_mats = fcol n;
      f_n_sa = fcol n;
      f_wspan = fcol n;
      f_hspan = fcol n;
      f_line_cells = fcol n;
      f_rows = fcol n;
      f_sensed_pa = fcol n;
      f_mats_x = fcol n;
      b_area = fcol n;
      b_time = fcol n;
      b_energy = fcol n;
      res = Array.init n_metric_cols (fun _ -> fcol (Int.max 1 n));
      status = Bytes.make (Int.max 1 n) st_pending;
    }
  in
  for i = 0 to n - 1 do
    if i land 511 = 0 then Cacti_util.Cancel.check cancel;
    let org = orgs.(i) and g = geos.(i) in
    let mats_x = Org.mats_x org and mats_y = Org.mats_y org in
    (* Each value below is [float_of_int] of an exact integer expression
       over the candidate's organization and geometry. *)
    let n_wordlines = g.Mat.g_rows_sub * g.Mat.g_vert in
    let n_ctl = 60 + (2 * Cacti_util.Floatx.clog2 (Int.max 2 n_wordlines)) in
    t.eff_deg.(i) <- (if is_dram then 1 else org.Org.deg_bl_mux);
    t.f_n_ctl.{i} <- float_of_int n_ctl;
    t.f_out_bits.{i} <- float_of_int g.Mat.g_out_bits;
    t.f_n_mats.{i} <- float_of_int (Org.n_mats org);
    t.f_n_sa.{i} <-
      float_of_int
        (if is_dram then g.Mat.g_horiz * g.Mat.g_cols_sub else g.Mat.g_sensed);
    t.f_wspan.{i} <-
      float_of_int (mats_x * g.Mat.g_horiz * g.Mat.g_cols_sub);
    t.f_hspan.{i} <- float_of_int (mats_y * g.Mat.g_vert * g.Mat.g_rows_sub);
    t.f_line_cells.{i} <- float_of_int (g.Mat.g_horiz * g.Mat.g_cols_sub);
    t.f_rows.{i} <- float_of_int g.Mat.g_rows_sub;
    t.f_sensed_pa.{i} <- float_of_int g.Mat.g_sensed_per_access;
    t.f_mats_x.{i} <- float_of_int mats_x
  done;
  t

let set_metrics t i (m : metrics) =
  let r = t.res in
  r.(0).{i} <- m.m_width;
  r.(1).{i} <- m.m_height;
  r.(2).{i} <- m.m_area;
  r.(3).{i} <- m.m_area_efficiency;
  r.(4).{i} <- m.m_t_access;
  r.(5).{i} <- m.m_t_random_cycle;
  r.(6).{i} <- m.m_t_interleave;
  r.(7).{i} <- m.m_e_read;
  r.(8).{i} <- m.m_e_write;
  r.(9).{i} <- m.m_e_activate;
  r.(10).{i} <- m.m_e_precharge;
  r.(11).{i} <- m.m_p_leakage;
  r.(12).{i} <- m.m_p_refresh;
  r.(13).{i} <- m.m_t_rcd;
  r.(14).{i} <- m.m_t_cas;
  r.(15).{i} <- m.m_t_ras;
  r.(16).{i} <- m.m_t_rp;
  r.(17).{i} <- m.m_t_rc;
  r.(18).{i} <- m.m_t_rrd

(* Named views of the metric columns the staged selection reads; the
   indices mirror [set_metrics] above — keep in sync. *)
let col_area t = t.res.(2)
let col_t_access t = t.res.(4)
let col_t_random_cycle t = t.res.(5)
let col_t_interleave t = t.res.(6)
let col_e_read t = t.res.(7)
let col_p_leakage t = t.res.(11)
let col_p_refresh t = t.res.(12)

let get_metrics t i : metrics =
  let r = t.res in
  {
    m_width = r.(0).{i};
    m_height = r.(1).{i};
    m_area = r.(2).{i};
    m_area_efficiency = r.(3).{i};
    m_t_access = r.(4).{i};
    m_t_random_cycle = r.(5).{i};
    m_t_interleave = r.(6).{i};
    m_e_read = r.(7).{i};
    m_e_write = r.(8).{i};
    m_e_activate = r.(9).{i};
    m_e_precharge = r.(10).{i};
    m_p_leakage = r.(11).{i};
    m_p_refresh = r.(12).{i};
    m_t_rcd = r.(13).{i};
    m_t_cas = r.(14).{i};
    m_t_ras = r.(15).{i};
    m_t_rp = r.(16).{i};
    m_t_rc = r.(17).{i};
    m_t_rrd = r.(18).{i};
  }

(* The bank-level model on top of a solved mat: H-tree distribution,
   timings, energies, leakage, refresh and area.  Pure float math against
   the staged constants — no circuit design happens here.  This is the
   single implementation behind both [Bank.assemble] and the columnar
   sweep. *)
let metrics_of_mat ~(staged : Staged.t) ~spec ~(org : Org.t) (mat : Mat.t) =
  let { Array_spec.output_bits; _ } = spec in
  let is_dram = staged.Staged.is_dram in
  let cell = staged.Staged.cell in
  let mats_x = Org.mats_x org and mats_y = Org.mats_y org in
  let n_mats = mats_x * mats_y in
  (* The page constraint is part of [Mat.geometry], so any surviving
     mat already satisfies it. *)
  let bank_w = float_of_int mats_x *. mat.Mat.width in
  let bank_h = float_of_int mats_y *. mat.Mat.height in
  let repeater = staged.Staged.repeater in
  let htree = Htree.plan ~repeater ~bank_width:bank_w ~bank_height:bank_h in
  let addr_bits = Array_spec.addr_bits spec + 8 in
  let addr_link = Htree.link htree ~bits:addr_bits ~activity:1.0 () in
  let data_out_link = Htree.link htree ~bits:output_bits ~activity:0.75 () in
  let data_in_link = Htree.link htree ~bits:output_bits ~activity:0.75 () in
  (* Port receivers/drivers at the bank boundary. *)
  let t_port = staged.Staged.t_port in
  let t_htree_in = addr_link.Stage.delay +. t_port in
  let t_htree_out = data_out_link.Stage.delay +. t_port in
  let t_access =
    t_htree_in +. mat.Mat.t_row_path +. mat.Mat.t_bitline
    +. mat.Mat.t_sense +. mat.Mat.t_column_out +. t_htree_out
  in
  let t_local_cycle =
    mat.Mat.t_wordline +. mat.Mat.t_bitline +. mat.Mat.t_sense
    +. mat.Mat.t_restore +. mat.Mat.t_precharge
  in
  let t_random_cycle = t_local_cycle in
  let t_htree_stage = (t_htree_in +. t_htree_out) /. 6. in
  let t_interleave =
    Cacti_util.Floatx.max
      (mat.Mat.t_bitline +. mat.Mat.t_sense +. mat.Mat.t_column_out)
      t_htree_stage
  in
  let active_mats = mats_x in
  let fam = float_of_int active_mats in
  (* Energies. *)
  let e_activate =
    addr_link.Stage.energy +. (fam *. mat.Mat.e_row_activate)
  in
  let e_col_read =
    (fam *. mat.Mat.e_column_read) +. data_out_link.Stage.energy
  in
  let e_col_write =
    (fam *. mat.Mat.e_column_write) +. data_in_link.Stage.energy
  in
  let e_precharge = fam *. mat.Mat.e_precharge in
  let e_read, e_write =
    if is_dram then
      (* SRAM-like interface with auto-precharge: a random read costs
         ACTIVATE + column read + PRECHARGE. *)
      ( e_activate +. e_col_read +. e_precharge,
        e_activate +. e_col_write +. e_precharge )
    else (e_activate +. e_col_read, e_activate +. e_col_write)
  in
  (* Leakage: mats (sleep transistors halve the non-active ones) +
     H-tree repeaters. *)
  let sleep_factor =
    if spec.Array_spec.sleep_tx then
      (fam +. (float_of_int (n_mats - active_mats) *. 0.5))
      /. float_of_int n_mats
    else 1.0
  in
  let p_leakage =
    (float_of_int n_mats *. mat.Mat.leakage *. sleep_factor)
    +. addr_link.Stage.leakage +. data_out_link.Stage.leakage
    +. data_in_link.Stage.leakage
  in
  (* Refresh. *)
  let p_refresh =
    if not is_dram then 0.
    else
      let wordlines_per_mat =
        mat.Mat.subarray.Subarray.rows
        * (mat.Mat.n_subarrays / mat.Mat.horiz_subarrays)
      in
      let n_wordlines = wordlines_per_mat * mats_y in
      (* Burst refresh shares command/decode overhead across rows and
         skips the column circuitry entirely. *)
      let refresh_efficiency = 0.75 in
      let e_per_refresh =
        refresh_efficiency
        *. (fam *. (mat.Mat.e_row_activate +. mat.Mat.e_precharge))
      in
      float_of_int n_wordlines *. e_per_refresh /. cell.Cell.retention_time
  in
  (* DRAM interface timings. *)
  let m_t_rcd, m_t_cas, m_t_ras, m_t_rp, m_t_rc, m_t_rrd =
    if not is_dram then (0., 0., 0., 0., 0., 0.)
    else
      let t_rcd =
        t_htree_in +. mat.Mat.t_row_path +. mat.Mat.t_bitline
        +. mat.Mat.t_sense
      in
      let t_cas = mat.Mat.t_column_out +. t_htree_out in
      let t_ras =
        mat.Mat.t_row_path +. mat.Mat.t_bitline +. mat.Mat.t_sense
        +. mat.Mat.t_restore
      in
      let t_rp = mat.Mat.t_precharge +. (0.3 *. mat.Mat.t_wordline) in
      (t_rcd, t_cas, t_ras, t_rp, t_ras +. t_rp, t_interleave)
  in
  (* Area. *)
  let htree_silicon =
    addr_link.Stage.area +. data_out_link.Stage.area
    +. data_in_link.Stage.area
  in
  let area = ((bank_w *. bank_h) +. htree_silicon) *. 1.08 in
  let cell_area_total =
    float_of_int n_mats
    *. float_of_int mat.Mat.n_subarrays
    *. Subarray.cell_area mat.Mat.subarray
  in
  {
    m_width = bank_w;
    m_height = bank_h;
    m_area = area;
    m_area_efficiency = cell_area_total /. area;
    m_t_access = t_access;
    m_t_random_cycle = t_random_cycle;
    m_t_interleave = t_interleave;
    m_e_read = e_read;
    m_e_write = e_write;
    m_e_activate = e_activate;
    m_e_precharge = e_precharge;
    m_p_leakage = p_leakage;
    m_p_refresh = p_refresh;
    m_t_rcd;
    m_t_cas;
    m_t_ras;
    m_t_rp;
    m_t_rc;
    m_t_rrd;
  }
