(** Structure-of-arrays batch store for the staged solver.

    Flattens the hierarchical screen's surviving candidates into float64
    Bigarray columns — one column per geometry/organization parameter the
    bank-level bounds consume, plus result columns for the lower bounds
    and all final bank metrics — so {!Cacti_array.Bank}'s sweep runs
    branch-free float math over chunked ranges instead of per-candidate
    closures and records.  Parameter columns store [float_of_int] of
    exact integers (well inside the float64 mantissa) and result columns
    round-trip losslessly, so a bank read back out of the columns is
    bit-identical to {!Cacti_array.Bank.evaluate} of the same candidate. *)

type col = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

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
  m_t_rcd : float;  (** DRAM interface timings; 0 for SRAM *)
  m_t_cas : float;
  m_t_ras : float;
  m_t_rp : float;
  m_t_rc : float;
  m_t_rrd : float;
}
(** Bank-level metrics of one candidate as a flat (unboxed) all-float
    record: the output of the bank assembly minus fields recoverable from
    (spec, org, mat). *)

val n_metric_cols : int

(** Candidate status bytes written by the evaluation loop. *)

val st_pending : char

val st_ok : char

val st_area_pruned : char

val st_bound_pruned : char

val st_nonviable : char

val st_nonfinite : char

val st_raised : char

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
      (** result: [n_metric_cols] per-metric columns, in
          {!metrics} field order *)
  status : Bytes.t;
}
(** Columns only: the sweep keeps no per-candidate mat.  A consumer that
    needs a candidate's mat re-derives it
    ({!Cacti_array.Bank.sweep_bank}). *)

val build :
  ?cancel:Cacti_util.Cancel.t -> is_dram:bool -> (Org.t * Mat.geometry) list -> t
(** Flatten screened survivors into parameter columns (the column_build
    phase).  Every value stored is [float_of_int] of an exact integer
    expression over the candidate's organization and geometry.  [cancel]
    is polled every few hundred candidates; a fired token aborts the
    build with {!Cacti_util.Cancel.Cancelled}. *)

val set_metrics : t -> int -> metrics -> unit
val get_metrics : t -> int -> metrics

(** Named views of the metric columns the staged selection
    ({!Cacti.Optimizer.select_soa_result}) reads.  Entries are only
    meaningful at indices whose status byte is {!st_ok}. *)

val col_area : t -> col

val col_t_access : t -> col

val col_t_random_cycle : t -> col

val col_t_interleave : t -> col

val col_e_read : t -> col

val col_p_leakage : t -> col

val col_p_refresh : t -> col

val metrics_of_mat :
  staged:Cacti_circuit.Staged.t ->
  spec:Array_spec.t ->
  org:Org.t ->
  Mat.t ->
  metrics
(** The bank-level model on top of a solved mat: H-tree distribution,
    timings, energies, leakage, refresh and area.  The single
    implementation behind both {!Cacti_array.Bank.assemble} and the
    columnar sweep. *)
