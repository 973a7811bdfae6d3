open Cacti_tech
open Cacti_circuit

type dram_timing = {
  t_rcd : float;
  t_cas : float;
  t_ras : float;
  t_rp : float;
  t_rc : float;
  t_rrd : float;
}

type t = {
  spec : Array_spec.t;
  org : Org.t;
  mat : Mat.t;
  n_mats : int;
  active_mats : int;
  width : float;
  height : float;
  area : float;
  area_efficiency : float;
  t_access : float;
  t_random_cycle : float;
  t_interleave : float;
  dram : dram_timing option;
  e_read : float;
  e_write : float;
  e_activate : float;
  e_precharge : float;
  p_leakage : float;
  p_refresh : float;
  n_subbanks : int;
  pipeline_stages : int;
}

(* Materialize a [t] from a mat and its flat metrics record.  Both
   [assemble] (the per-candidate {!evaluate}) and the columnar sweep
   (after reading the metrics back out of the result columns — a lossless
   float64 round-trip) build banks through this single constructor. *)
let bank_of_metrics ~(staged : Staged.t) ~spec ~(org : Org.t) (mat : Mat.t)
    (m : Soa_kernel.metrics) =
  let mats_x = Org.mats_x org and mats_y = Org.mats_y org in
  {
    spec;
    org;
    mat;
    n_mats = mats_x * mats_y;
    active_mats = mats_x;
    width = m.Soa_kernel.m_width;
    height = m.Soa_kernel.m_height;
    area = m.Soa_kernel.m_area;
    area_efficiency = m.Soa_kernel.m_area_efficiency;
    t_access = m.Soa_kernel.m_t_access;
    t_random_cycle = m.Soa_kernel.m_t_random_cycle;
    t_interleave = m.Soa_kernel.m_t_interleave;
    dram =
      (if staged.Staged.is_dram then
         Some
           {
             t_rcd = m.Soa_kernel.m_t_rcd;
             t_cas = m.Soa_kernel.m_t_cas;
             t_ras = m.Soa_kernel.m_t_ras;
             t_rp = m.Soa_kernel.m_t_rp;
             t_rc = m.Soa_kernel.m_t_rc;
             t_rrd = m.Soa_kernel.m_t_rrd;
           }
       else None);
    e_read = m.Soa_kernel.m_e_read;
    e_write = m.Soa_kernel.m_e_write;
    e_activate = m.Soa_kernel.m_e_activate;
    e_precharge = m.Soa_kernel.m_e_precharge;
    p_leakage = m.Soa_kernel.m_p_leakage;
    p_refresh = m.Soa_kernel.m_p_refresh;
    n_subbanks = mats_y;
    pipeline_stages = mat.Mat.decoder.Decoder.n_stages + 3;
  }

(* The bank-level model on top of a solved mat — see
   {!Soa_kernel.metrics_of_mat} for the formulas. *)
let assemble ~(staged : Staged.t) ~spec ~(org : Org.t) (mat : Mat.t) =
  bank_of_metrics ~staged ~spec ~org mat
    (Soa_kernel.metrics_of_mat ~staged ~spec ~org mat)

let evaluate_staged ~staged ~spec ~org =
  match Mat.make_staged ~staged ~spec ~org () with
  | None -> None
  | Some mat -> Some (assemble ~staged ~spec ~org mat)

let evaluate ~spec ~org =
  evaluate_staged ~staged:(Mat.staged_of_spec spec) ~spec ~org

(* Cheap per-organization lower bounds on the final bank metrics, computed
   from the geometry alone (before any circuit modeling).  Each is provably
   a lower bound of the corresponding [assemble] output:

   - area: the cell matrix itself (constant across organizations) plus the
     per-mat sense amplifiers and control block, whose replication grows
     with the mat count and the sensing width.  The mat folds both into
     its sense strip ([sa_area + control_area], every other strip term
     nonnegative) and the bank applies the same 1.08 wiring overhead, so
     all three terms are included in the real area.  The sense-amp term is
     what gives the bound its discriminating power: the cell matrix alone
     is the same for every organization (width x height telescopes to
     [row_bits * n_rows] cells), while lightly-muxed organizations carry
     an amplifier per column.
   - time: the H-tree in + out traversal plus the distributed-RC flight
     terms of the wordline and the bitline.  The bank is at least
     [mats_x * horiz * cols_sub] cells wide and [mats_y * vert * rows_sub]
     cells tall (a subarray is exactly its cell matrix; mat strips and
     H-tree silicon only add to that), the worst-case H-tree path is
     (W + H)/2 in each direction at [delay_per_m] per meter, plus the two
     3-FO4 ports.  [t_row_path >= Decoder.t_line = 0.38 * r_line * c_line]
     with the line RC exactly [horiz * cols_sub] cell pitches of wordline
     wire; the SRAM [t_read_develop >= 0.38 * r_bl * c_bl] (the
     cell-current development term and the sense-amp input load are
     nonnegative) and the DRAM [t_charge_share] is monotone in the bitline
     capacitance, so evaluating it at [c_sense_input = 0] bounds it from
     below.  These quadratic terms are what catch the slow candidates: a
     degenerate organization is slow because of its mile-long wordlines
     or bitlines, not its H-tree.
   - energy (read): the address + data-out H-tree link energy over the same
     minimum span, plus one sense-amp firing per sensed column (and, for
     DRAM, the storage-cell restore charge on every active column); all
     other mat energies are nonnegative.

   The 0.999 factor keeps each bound strictly conservative against float
   rounding, so pruning on it can never drop a candidate that would have
   tied or beaten the eventual winner. *)
type bounds = { b_area : float; b_time : float; b_energy : float }

(* The bound evaluation: all per-spec constants are closed over once
   (the staged sense amp is one array load by degree); each call is then
   pure float math over one candidate's {!Soa_kernel} parameter
   columns. *)
let bounds_of ~(staged : Staged.t) spec =
  let { Array_spec.n_rows; row_bits; output_bits; _ } = spec in
  let cell_w = staged.Staged.cell_w and cell_h = staged.Staged.cell_h in
  let ctl_area = staged.Staged.ctl_inv.Gate.area in
  let wr_area = staged.Staged.wr_drv.Gate.area in
  let rep = staged.Staged.repeater in
  let t_port = staged.Staged.t_port in
  let cells_total =
    float_of_int n_rows *. float_of_int row_bits *. cell_w *. cell_h
  in
  let energy_bits =
    float_of_int (Array_spec.addr_bits spec + 8)
    +. (0.75 *. float_of_int output_bits)
  in
  let is_dram = staged.Staged.is_dram in
  let cell = staged.Staged.cell in
  let wl_rc = cell.Cell.r_wl_per_cell *. cell.Cell.c_wl_per_cell in
  let r_bl = cell.Cell.r_bl_per_cell and c_bl = cell.Cell.c_bl_per_cell in
  let vdd_cell = cell.Cell.vdd_cell in
  (* DRAM charge-share constants (see [Bitline.dram]). *)
  let r_access = 0.15 *. vdd_cell /. cell.Cell.i_cell_on in
  let cs = cell.Cell.storage_cap in
  let e_restore_per_col = 0.75 *. cs *. vdd_cell *. vdd_cell in
  fun ~eff_deg ~f_n_ctl ~f_out_bits ~f_n_mats ~f_n_sa ~f_wspan ~f_hspan
      ~f_line_cells ~f_rows ~f_sensed_pa ~f_mats_x ->
    let sense = Staged.sense staged ~deg_bl_mux:eff_deg in
    let s_area = sense.Sense_amp.area and s_energy = sense.Sense_amp.energy in
    let control = (f_n_ctl *. ctl_area) +. (f_out_bits *. 2. *. wr_area) in
    let sa_area = f_n_sa *. s_area in
    let b_area =
      0.999 *. 1.08 *. (cells_total +. (f_n_mats *. (control +. sa_area)))
    in
    let w_lb = f_wspan *. cell_w in
    let h_lb = f_hspan *. cell_h in
    let span = w_lb +. h_lb in
    (* Wordline flight: exactly [Decoder.t_line] for this line length. *)
    let t_wordline_lb = 0.38 *. f_line_cells *. f_line_cells *. wl_rc in
    (* Bitline: the distributed-RC floor of develop / charge-share. *)
    let t_bitline_lb =
      if is_dram then
        let c_line = f_rows *. c_bl in
        let c_eq = cs *. c_line /. (cs +. c_line) in
        2.3 *. (r_access +. (0.5 *. f_rows *. r_bl)) *. c_eq
      else 0.38 *. f_rows *. f_rows *. r_bl *. c_bl
    in
    let b_time =
      0.999
      *. ((rep.Repeater.delay_per_m *. span) +. (2. *. t_port)
         +. t_wordline_lb +. t_bitline_lb)
    in
    let e_mat_lb =
      (f_sensed_pa *. s_energy)
      +. (if is_dram then f_line_cells *. e_restore_per_col else 0.)
    in
    let b_energy =
      0.999
      *. ((energy_bits *. rep.Repeater.energy_per_m *. span /. 2.)
         +. (f_mats_x *. e_mat_lb))
    in
    { b_area; b_time; b_energy }

(* The branch-and-bound champion: the metrics of the smallest-area
   candidate evaluated so far.  [ch_area] only shrinks, so any snapshot
   over-approximates the final best area, and because the final best-area
   candidate always survives the staged filters into [within_area], its
   access time [ch_time] upper-bounds the final [best_t] of the time
   filter.  That makes the pruning rules below sound for the staged
   selection of {!Cacti.Optimizer} whatever the evaluation order — see
   [bound_policy] in the interface. *)
type champion = { ch_area : float; ch_time : float; ch_energy : float }

let no_champion =
  { ch_area = Float.infinity; ch_time = Float.infinity;
    ch_energy = Float.infinity }

let rec note_champion cell ~area ~time ~energy =
  let cur = Atomic.get cell in
  if area < cur.ch_area then
    let next = { ch_area = area; ch_time = time; ch_energy = energy } in
    if not (Atomic.compare_and_set cell cur next) then
      note_champion cell ~area ~time ~energy

type bound_policy = { acctime_pct : float; energy_only : bool }

type fault = Fault_nan | Fault_exn | Fault_force

let fault_hook : (int -> fault option) ref = ref (fun _ -> None)
let set_fault_hook h = fault_hook := Option.value h ~default:(fun _ -> None)

(* Metric sanity at the array boundary: every quantity the optimizer or a
   downstream model consumes must be a finite non-negative number.  Raises
   [Floatx.Non_finite], which the sweep contains and counts. *)
let check_metrics (m : Soa_kernel.metrics) =
  let chk what v = ignore (Cacti_util.Floatx.finite_pos ~what v) in
  chk "t_access" m.Soa_kernel.m_t_access;
  chk "t_random_cycle" m.Soa_kernel.m_t_random_cycle;
  chk "t_interleave" m.Soa_kernel.m_t_interleave;
  chk "area" m.Soa_kernel.m_area;
  chk "e_read" m.Soa_kernel.m_e_read;
  chk "e_write" m.Soa_kernel.m_e_write;
  chk "e_activate" m.Soa_kernel.m_e_activate;
  chk "e_precharge" m.Soa_kernel.m_e_precharge;
  chk "p_leakage" m.Soa_kernel.m_p_leakage;
  chk "p_refresh" m.Soa_kernel.m_p_refresh

(* Cross-sweep memo of the expensive solver sub-stages: the subarray and
   the two halves of the row decoder.  A salt from [Mat.fingerprint_salt]
   captures every spec input these designs read (cell kind, feature size,
   wire parasitics), so a (salt, dims) key identifies a design across
   sweeps.  The subarray is a function of (rows, cols, deg), the
   predecode of (rows, vert) and the wordline driver of (cols, horiz), so
   a sweep over ~2000 survivors has only ~300 distinct subarrays and far
   fewer distinct decoder halves, and the same designs recur across a
   study matrix (sizes of one config share most subarray shapes).  A
   whole decoder is [Decoder.combine] of its halves, a few additions.
   Every sweep and every mat re-derivation goes through these tables. *)
let stage_memo_cap = 8192

(* A stage-memo key: the spec's salt, its hash (both computed once per
   sweep) and three dims.  Equality and hash are typed, so a lookup runs
   no generic compare or [caml_hash]; [String.equal] is one pointer test
   for the salt of the sweep that made the entry. *)
type key = { salt : string; salt_hash : int; d0 : int; d1 : int; d2 : int }

module Key_tbl = Hashtbl.Make (struct
  type t = key

  let equal a b =
    a.d0 = b.d0 && a.d1 = b.d1 && a.d2 = b.d2 && String.equal a.salt b.salt

  (* The table indexes by the low bits, so fold the high bits of the
     multiplicative mix back down. *)
  let hash k =
    let mix h x = (h lxor x) * 0x100000001b3 in
    let h = mix (mix (mix k.salt_hash k.d0) k.d1) k.d2 in
    h lxor (h lsr 32)
end)

type 'a memo = { mu : Mutex.t; tbl : ('a, exn) result Key_tbl.t }

let memo n = { mu = Mutex.create (); tbl = Key_tbl.create n }

(* Keyed by (rows, cols, deg), (rows, vert, 0) and (cols, horiz, 0). *)
let g_sub : Subarray.t memo = memo 512
let g_pre : Decoder.predecode memo = memo 256
let g_line : Decoder.line_driver memo = memo 256

let reset_stage_memo () =
  let reset m = Mutex.protect m.mu (fun () -> Key_tbl.reset m.tbl) in
  reset g_sub;
  reset g_pre;
  reset g_line

(* Memoize a sub-stage computation, [compute key arg], storing the result
   so a raising design re-raises identically on every hit (keeping
   per-candidate fault counts equal between first and repeat encounters).
   A table that reaches [stage_memo_cap] entries is reset, which bounds
   it in a long-lived process.  The lookup cannot raise, so a hit takes
   the lock without [Mutex.protect]'s closure. *)
let memoized m key compute arg =
  Mutex.lock m.mu;
  let hit = Key_tbl.find_opt m.tbl key in
  Mutex.unlock m.mu;
  match hit with
  | Some (Ok v) -> v
  | Some (Error e) -> raise e
  | None -> (
      let r =
        try Ok (compute key arg)
        with
        | (Out_of_memory | Stack_overflow) as e -> raise e
        | e -> Error e
      in
      Mutex.protect m.mu (fun () ->
          if Key_tbl.length m.tbl >= stage_memo_cap then Key_tbl.reset m.tbl;
          if not (Key_tbl.mem m.tbl key) then Key_tbl.add m.tbl key r);
      match r with Ok v -> v | Error e -> raise e)

(* The mat-base solver of one spec over the shared stage memo: a pure
   function of (effective degree, geometry), so the sweep and a later
   re-derivation of any of its candidates get bit-identical mats. *)
let base_solver ~(staged : Staged.t) ~spec =
  let salt = Mat.fingerprint_salt ~spec in
  let salt_hash = String.hash salt in
  let key d0 d1 d2 = { salt; salt_hash; d0; d1; d2 } in
  let subarray k () = Mat.subarray_of ~staged ~rows:k.d0 ~cols:k.d1 ~deg:k.d2
  and predecode k sub = Mat.predecode_of ~staged sub ~vert:k.d1
  and line_driver k sub = Mat.line_driver_of ~staged sub ~horiz:k.d1 in
  let sub_of ~rows ~cols ~deg =
    memoized g_sub (key rows cols deg) subarray ()
  and dec_of (sub : Subarray.t) ~horiz ~vert =
    let p = memoized g_pre (key sub.Subarray.rows vert 0) predecode sub in
    let l = memoized g_line (key sub.Subarray.cols horiz 0) line_driver sub in
    Decoder.combine p l
  in
  fun ~deg g -> Mat.eval_base ~staged ~sub_of ~dec_of ~deg g

let finish_org ~staged (org : Org.t) b =
  Mat.finish ~staged b ~ndsam_lev1:org.Org.ndsam_lev1
    ~ndsam_lev2:org.Org.ndsam_lev2

(* The mat of one candidate through the stage memo. *)
let mat_solver ~(staged : Staged.t) ~spec =
  let base_of = base_solver ~staged ~spec in
  fun org g ->
    Option.map (finish_org ~staged org)
      (base_of ~deg:(Mat.eff_deg ~staged org) g)

(* A completed columnar sweep, before any bank record exists.  It keeps
   metric columns, not mats: a mat kept per evaluated candidate would
   survive the minor heap and be copied out of it.  Consumers either
   materialize every surviving candidate ({!enumerate_counts}) or scan the
   metric columns and materialize only the selected one (the
   staged-selection fast path in {!Cacti.Solve_cache}), re-deriving the
   mats they need from the stage memo. *)
type sweep = {
  sw_spec : Array_spec.t;
  sw_staged : Staged.t;
  sw_soa : Soa_kernel.t;
  sw_counts : Cacti_util.Diag.counts;
}

(* The mat base of the run of candidates an evaluation chunk is in. *)
type run = {
  mutable r_geo : Mat.geometry;
  mutable r_deg : int;  (* -1 before the chunk's first evaluation *)
  mutable r_base : (Mat.base option, exn) result;
}

(* The sweep: survivors of the screen flow through {!Soa_kernel} columns —
   bounds are evaluated branch-free over chunk ranges from the parameter
   columns, solved metrics land in result columns, and nothing
   materializes into a [t] record until a consumer asks for it. *)
let run ?(pool = Cacti_util.Pool.serial) ?(cancel = Cacti_util.Cancel.never)
    ?prune ?bound ?max_ndwl ?max_ndbl ?(strict = false) ?screened spec =
  Cacti_util.Profile.time "enumerate" @@ fun () ->
  Cacti_util.Cancel.check cancel;
  let staged = Mat.staged_of_spec spec in
  let is_dram = staged.Staged.is_dram in
  (* Integer tiling, mux-chain and page constraints are pure arithmetic:
     screen them serially (and hierarchically — see {!Mat.screen}) before
     fanning the expensive evaluations out.  A caller that already holds
     the screen result (e.g. incremental re-solve) passes it in. *)
  let survivors, n_total, n_geometry, n_page =
    match screened with
    | Some s -> s
    | None -> Mat.screen ?max_ndwl ?max_ndbl ~spec ()
  in
  let n_ok = Atomic.make 0
  and n_area_pruned = Atomic.make 0
  and n_bound_pruned = Atomic.make 0
  and n_nonviable = Atomic.make 0
  and n_nonfinite = Atomic.make 0
  and n_raised = Atomic.make 0 in
  let champion = Atomic.make no_champion in
  let hook = !fault_hook in
  (* `Area: could never survive the max_area_pct filter.  `Bound: could
     survive it, but provably cannot displace the champion's candidate as
     the selected solution (see [bound_policy]).  Both compare monotone
     lower bounds against a monotonically improving champion, so a
     candidate pruned under any evaluation order is pruned soundly. *)
  let decide b_area b_time b_energy =
    let ch = Atomic.get champion in
    let area_cut =
      match prune with
      | Some max_area_pct -> b_area > ch.ch_area *. (1. +. max_area_pct)
      | None -> false
    in
    if area_cut then `Area
    else
      match bound with
      | Some bp
        when b_area > ch.ch_area
             && (b_time > ch.ch_time *. (1. +. bp.acctime_pct)
                || (bp.energy_only && b_time > ch.ch_time
                   && b_energy > ch.ch_energy)) ->
          `Bound
      | _ -> `Eval
  in
  let soa =
    Cacti_util.Profile.time "column_build" (fun () ->
        Soa_kernel.build ~cancel ~is_dram survivors)
  in
  let n = soa.Soa_kernel.n in
  let bounds_fn =
    if prune <> None || bound <> None then Some (bounds_of ~staged spec)
    else None
  in
  let base_of = base_solver ~staged ~spec in
  (* Candidates of one screen leaf share one physical geometry record and
     are consecutive, and differ only in their Ndsam pair: each
     evaluation chunk resolves the mat base (subarray, decoder, and the
     rest {!Mat.base} computes) once per run of equal (geometry, degree)
     and then finishes one mat per candidate.  A run's failure is kept
     and re-raised for every candidate of the run that evaluates, so
     fault counts stay per candidate. *)
  let solve_mat run org g =
    Cacti_util.Profile.time "mat_solve" (fun () ->
        let deg = Mat.eff_deg ~staged org in
        if not (g == run.r_geo && deg = run.r_deg) then begin
          run.r_geo <- g;
          run.r_deg <- deg;
          run.r_base <-
            (try Ok (base_of ~deg g) with
            | (Out_of_memory | Stack_overflow) as e -> raise e
            | e -> Error e)
        end;
        match run.r_base with
        | Ok b -> Option.map (finish_org ~staged org) b
        | Error e -> raise e)
  in
  let status = soa.Soa_kernel.status in
  let eval_one run i =
    let org = soa.Soa_kernel.orgs.(i) and g = soa.Soa_kernel.geos.(i) in
    let injected = hook i in
    (* Injected candidates bypass the (evaluation-order-dependent) prunes
       so the fault counts are identical for every worker count — and so
       [Fault_force] force-evaluates a candidate the prunes would skip. *)
    let cls =
      if injected <> None || bounds_fn = None then `Eval
      else
        decide soa.Soa_kernel.b_area.{i} soa.Soa_kernel.b_time.{i}
          soa.Soa_kernel.b_energy.{i}
    in
    match cls with
    | `Area ->
        Atomic.incr n_area_pruned;
        Bytes.set status i Soa_kernel.st_area_pruned
    | `Bound ->
        Atomic.incr n_bound_pruned;
        Bytes.set status i Soa_kernel.st_bound_pruned
    | `Eval -> (
        try
          (match injected with
          | Some Fault_exn -> failwith "Bank.enumerate: injected fault"
          | _ -> ());
          match (solve_mat run org g, injected) with
          | None, Some Fault_nan ->
              raise (Cacti_util.Floatx.Non_finite "t_access is nan (injected)")
          | None, _ ->
              Atomic.incr n_nonviable;
              Bytes.set status i Soa_kernel.st_nonviable
          | Some mat, inj ->
              let m = Soa_kernel.metrics_of_mat ~staged ~spec ~org mat in
              let m =
                match inj with
                | Some Fault_nan -> { m with Soa_kernel.m_t_access = Float.nan }
                | _ -> m
              in
              Soa_kernel.set_metrics soa i m;
              check_metrics m;
              note_champion champion ~area:m.Soa_kernel.m_area
                ~time:m.Soa_kernel.m_t_access ~energy:m.Soa_kernel.m_e_read;
              Atomic.incr n_ok;
              Bytes.set status i Soa_kernel.st_ok
        with
        | Cacti_util.Floatx.Non_finite _ when not strict ->
            Atomic.incr n_nonfinite;
            Bytes.set status i Soa_kernel.st_nonfinite
        | (Out_of_memory | Stack_overflow) as e -> raise e
        | _ when not strict ->
            Atomic.incr n_raised;
            Bytes.set status i Soa_kernel.st_raised)
  in
  let chunk = 64 in
  let n_chunks = (n + chunk - 1) / chunk in
  Cacti_util.Profile.time "kernel_eval" (fun () ->
      Cacti_util.Pool.run_chunked ~chunk:1 pool n_chunks (fun c ->
          (* One cancellation poll per partition chunk, outside the
             per-candidate containment: every pool domain observes a fired
             token within one chunk and unwinds, so an expired solve aborts
             in milliseconds. *)
          Cacti_util.Cancel.check cancel;
          let lo = c * chunk in
          let hi = Int.min n (lo + chunk) in
          (match bounds_fn with
          | Some f ->
              for i = lo to hi - 1 do
                let b =
                  f ~eff_deg:soa.Soa_kernel.eff_deg.(i)
                    ~f_n_ctl:soa.Soa_kernel.f_n_ctl.{i}
                    ~f_out_bits:soa.Soa_kernel.f_out_bits.{i}
                    ~f_n_mats:soa.Soa_kernel.f_n_mats.{i}
                    ~f_n_sa:soa.Soa_kernel.f_n_sa.{i}
                    ~f_wspan:soa.Soa_kernel.f_wspan.{i}
                    ~f_hspan:soa.Soa_kernel.f_hspan.{i}
                    ~f_line_cells:soa.Soa_kernel.f_line_cells.{i}
                    ~f_rows:soa.Soa_kernel.f_rows.{i}
                    ~f_sensed_pa:soa.Soa_kernel.f_sensed_pa.{i}
                    ~f_mats_x:soa.Soa_kernel.f_mats_x.{i}
                in
                soa.Soa_kernel.b_area.{i} <- b.b_area;
                soa.Soa_kernel.b_time.{i} <- b.b_time;
                soa.Soa_kernel.b_energy.{i} <- b.b_energy
              done
          | None -> ());
          let run =
            { r_geo = soa.Soa_kernel.geos.(lo); r_deg = -1; r_base = Ok None }
          in
          for i = lo to hi - 1 do
            eval_one run i
          done));
  {
    sw_spec = spec;
    sw_staged = staged;
    sw_soa = soa;
    sw_counts =
      {
        Cacti_util.Diag.candidates = n_total;
        evaluated = Atomic.get n_ok;
        geometry_rejected = n_geometry;
        page_rejected = n_page;
        area_pruned = Atomic.get n_area_pruned;
        bound_pruned = Atomic.get n_bound_pruned;
        nonviable = Atomic.get n_nonviable;
        nonfinite = Atomic.get n_nonfinite;
        raised = Atomic.get n_raised;
      };
  }

(* Candidate [i] as a bank record, its mat re-derived by [mat_of] (a
   {!mat_solver} of the sweep's spec). *)
let bank_at mat_of sw i =
  let soa = sw.sw_soa in
  if Bytes.get soa.Soa_kernel.status i <> Soa_kernel.st_ok then
    invalid_arg "Bank.sweep_bank: candidate did not evaluate";
  let org = soa.Soa_kernel.orgs.(i) in
  match mat_of org soa.Soa_kernel.geos.(i) with
  | Some mat ->
      bank_of_metrics ~staged:sw.sw_staged ~spec:sw.sw_spec ~org mat
        (Soa_kernel.get_metrics soa i)
  | None -> assert false (* it evaluated, and the solver is pure *)

let sweep_bank sw i =
  bank_at (mat_solver ~staged:sw.sw_staged ~spec:sw.sw_spec) sw i

let materialize_all sw =
  let mat_of = mat_solver ~staged:sw.sw_staged ~spec:sw.sw_spec in
  let soa = sw.sw_soa in
  let banks = ref [] in
  for i = soa.Soa_kernel.n - 1 downto 0 do
    if Bytes.get soa.Soa_kernel.status i = Soa_kernel.st_ok then
      banks := bank_at mat_of sw i :: !banks
  done;
  !banks

let enumerate_soa = run

let enumerate_counts ?pool ?cancel ?prune ?bound ?max_ndwl ?max_ndbl ?strict
    ?screened spec =
  let sw =
    run ?pool ?cancel ?prune ?bound ?max_ndwl ?max_ndbl ?strict ?screened spec
  in
  (materialize_all sw, sw.sw_counts)

let enumerate ?pool ?cancel ?prune ?bound ?max_ndwl ?max_ndbl ?strict
    ?screened spec =
  fst
    (enumerate_counts ?pool ?cancel ?prune ?bound ?max_ndwl ?max_ndbl ?strict
       ?screened spec)
