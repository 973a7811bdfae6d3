(** Bank assembly: mats + H-tree + port, producing the full metric record
    CACTI-D's optimizer ranks.

    Timing model (Section 2.3.5): for SRAM-interface operation the array
    reports access time, random cycle time and multisubbank-interleave cycle
    time; for DRAM it additionally reports the main-memory-style timing
    parameters tRCD, CAS latency, tRAS, tRP and tRC, with the destructive
    readout's writeback/restore and the bitline precharge bounding the cycle
    times. *)

type dram_timing = {
  t_rcd : float;  (** ACTIVATE to READ/WRITE, s *)
  t_cas : float;  (** READ to data, s *)
  t_ras : float;  (** ACTIVATE to PRECHARGE (includes restore), s *)
  t_rp : float;  (** PRECHARGE to ACTIVATE, s *)
  t_rc : float;  (** full row cycle: tRAS + tRP, s *)
  t_rrd : float;  (** bank/subbank interleave bound, s *)
}

type t = {
  spec : Array_spec.t;
  org : Org.t;
  mat : Mat.t;
  n_mats : int;
  active_mats : int;  (** mats activated per access (one horizontal slice) *)
  width : float;
  height : float;
  area : float;
  area_efficiency : float;  (** cell area / bank area *)
  t_access : float;  (** s: address-in to data-at-port *)
  t_random_cycle : float;  (** s: back-to-back accesses anywhere in the bank *)
  t_interleave : float;  (** s: multisubbank interleave cycle time *)
  dram : dram_timing option;
  e_read : float;  (** J per read access *)
  e_write : float;  (** J per write access *)
  e_activate : float;  (** J per DRAM ACTIVATE (= e_read for SRAM) *)
  e_precharge : float;  (** J per DRAM PRECHARGE *)
  p_leakage : float;  (** W, with sleep-transistor gating if enabled *)
  p_refresh : float;  (** W, DRAM refresh *)
  n_subbanks : int;  (** interleavable horizontal slices *)
  pipeline_stages : int;  (** logic depth proxy used for clocking limits *)
}

val evaluate : spec:Array_spec.t -> org:Org.t -> t option
(** Full metrics for one candidate organization; [None] if invalid. *)

val evaluate_staged :
  staged:Cacti_circuit.Staged.t -> spec:Array_spec.t -> org:Org.t -> t option
(** {!evaluate} against precomputed staged constants
    ([Mat.staged_of_spec spec]); bit-identical to {!evaluate}. *)

val bank_of_metrics :
  staged:Cacti_circuit.Staged.t ->
  spec:Array_spec.t ->
  org:Org.t ->
  Mat.t ->
  Soa_kernel.metrics ->
  t
(** Materialize a bank record from a solved mat and its flat metrics
    (see {!Soa_kernel.metrics_of_mat}); the single constructor behind
    both {!evaluate} and the columnar sweep. *)

val assemble :
  staged:Cacti_circuit.Staged.t ->
  spec:Array_spec.t ->
  org:Org.t ->
  Mat.t ->
  t
(** The bank-level model on top of a solved mat:
    [bank_of_metrics ... (Soa_kernel.metrics_of_mat ...)]. *)

type bound_policy = { acctime_pct : float; energy_only : bool }
(** Policy of the branch-and-bound prune (the [?bound] argument of
    {!enumerate_counts}).  Every screened candidate gets admissible lower
    bounds [b_area], [b_time] and [b_energy] on its final [area],
    [t_access] and [e_read], computed from its geometry alone (the
    {!Soa_kernel.t} [b_*] columns): area counts the cell matrix plus the
    sense-amp strip and control replication (the cell matrix alone is
    organization-invariant, so the sense amps — per active column on DRAM
    — carry all the discrimination); time counts H-tree traversal over the
    minimum bank extent plus the closed-form wordline flight and bitline
    development/charge-share RC; energy counts H-tree link energy plus
    per-mat sensing and DRAM restore.  All are kept strictly conservative
    against float rounding by a 0.999 factor.

    A candidate [c] is pruned when, against the smallest-area candidate
    evaluated so far (the champion, of area [A], access time [T] and read
    energy [E]):

    - [c.b_area > A] and [c.b_time > T * (1 + acctime_pct)]; or
    - [energy_only] and [c.b_area > A] and [c.b_time > T] and
      [c.b_energy > E].

    Both rules are sound for the staged selection of Section 2.4
    ({!Cacti.Optimizer.select_soa_result} with the same
    [max_acctime_pct]): if such a [c] survived the final area filter, so
    would the champion (its area is strictly smaller), so the time
    filter's [best_t] is at most [T], which [c] fails; [c] can neither
    lower [best_area] nor any objective normalization it participates
    in.  The [energy_only] rule
    additionally requires that the objective weighs nothing but dynamic
    read energy — with the champion inside the time filter, a candidate
    worse on area, time and read energy can never attain a strictly
    smaller objective.  It must not be set for any other weighting.

    The prune is only valid when the sweep's consumer applies exactly that
    staged selection; populations consumed whole (e.g. Pareto frontiers or
    [solve_space]) must not pass [?bound]. *)

type fault = Fault_nan | Fault_exn | Fault_force
(** Test-only fault injection: [Fault_nan] poisons the candidate's access
    time with NaN after evaluation, [Fault_exn] raises inside the contained
    region before evaluation, [Fault_force] evaluates the candidate
    normally but bypasses the prunes (for pruning-soundness properties). *)

val reset_stage_memo : unit -> unit
(** Clear the cross-sweep stage memo that every sweep and every mat
    re-derivation ({!sweep_bank}) goes through: its three tables hold
    subarrays keyed by (salt, rows, cols, deg), decoder predecode halves
    by (salt, rows, vert) and wordline-driver halves by (salt, cols,
    horiz) (see {!Mat.fingerprint_salt}); a whole decoder is
    [Decoder.combine] of its halves.  Entries are pure functions of their
    keys, so this is never needed for correctness — it releases memory
    and gives tests a cold-state baseline ([Cacti.Solve_cache.clear]
    calls it).  Each table is also reset whenever it reaches 8192
    entries. *)

val set_fault_hook : (int -> fault option) option -> unit
(** Install (or with [None] clear) a hook consulted once per screened
    candidate, keyed by its position in the post-screen enumeration order.
    Injected candidates bypass the area and bound prunes so the resulting
    [nonfinite] / [raised] counts are identical for every worker count.
    Test-only; the hook must be cleared (and is global, so not reentrant) —
    production code never sets it. *)

val enumerate_counts :
  ?pool:Cacti_util.Pool.t ->
  ?cancel:Cacti_util.Cancel.t ->
  ?prune:float ->
  ?bound:bound_policy ->
  ?max_ndwl:int ->
  ?max_ndbl:int ->
  ?strict:bool ->
  ?screened:((Org.t * Mat.geometry) list * int * int * int) ->
  Array_spec.t ->
  t list * Cacti_util.Diag.counts
(** All valid organizations of the spec, in the deterministic grid order of
    {!Org.candidates}, plus the rejection histogram over every candidate
    considered.

    [pool] fans the candidate evaluations out across domains; without
    prunes the returned list is identical (same elements, same order) for
    any worker count, and with them the staged-selection winner over the
    list is.  [prune], when set to the optimizer's [max_area_pct], skips
    candidates whose cheap area lower bound already exceeds the best area
    seen so far by more than that fraction — such candidates can never
    survive the optimizer's area filter, so every solution the staged
    selection of Section 2.4 can return is unaffected.  [bound] extends
    the prune to candidates that would survive the area filter but
    provably cannot displace the selected solution (see {!bound_policy});
    only pass it when the consumer is exactly that staged selection.

    The sweep runs through the columnar {!Soa_kernel} store: survivors
    are flattened into float64 parameter columns, bounds and metrics are
    computed over chunk ranges, and distinct subarray and decoder-half
    sub-stages come from the cross-sweep stage memo (see
    {!reset_stage_memo}).  Within an evaluation chunk, each run of
    consecutive candidates that share a geometry record and bitline-mux
    degree (one screen leaf: they differ only in their Ndsam pair)
    resolves its {!Mat.base} once; each candidate then gets its own
    {!Mat.finish} and bank metrics.  A failure of the shared stage counts
    once for every candidate of the run that evaluates.  The
    sweep keeps no mats; each surviving record re-derives its mat from
    the stage memo when it materializes at the end ({!sweep_bank}).  Without prunes the result equals the naive per-candidate
    reference in [test/oracle/solver_naive.ml] ({!evaluate} on every
    candidate of {!Org.candidates} that passes {!Mat.classify}): same
    banks in the same order, same counts.

    [screened] supplies a precomputed screen result
    ([(survivors, n_total, n_geometry, n_page)], as returned by
    {!Mat.screen} / {!Mat.screen_of_tree} for this spec and grid bounds)
    so incremental re-solves skip re-screening.

    Per-candidate evaluation is fault-contained: an exception escaping the
    circuit model, or a non-finite / negative delay, energy, area or power,
    rejects that candidate (counted under [raised] / [nonfinite]) instead of
    killing the sweep.  [strict] (default false) disables the containment
    and lets the first such failure propagate.

    [cancel] is polled at partition boundaries — once per evaluation
    chunk, every few hundred candidates inside the column build —
    {e outside} the fault containment, so a fired token aborts the whole
    sweep with {!Cacti_util.Cancel.Cancelled} within milliseconds instead
    of being counted as a candidate fault.  A token that never fires
    changes nothing: solutions and counts are bit-identical to a run
    without one. *)

val enumerate :
  ?pool:Cacti_util.Pool.t ->
  ?cancel:Cacti_util.Cancel.t ->
  ?prune:float ->
  ?bound:bound_policy ->
  ?max_ndwl:int ->
  ?max_ndbl:int ->
  ?strict:bool ->
  ?screened:((Org.t * Mat.geometry) list * int * int * int) ->
  Array_spec.t ->
  t list
(** {!enumerate_counts} without the histogram. *)

type sweep = {
  sw_spec : Array_spec.t;
  sw_staged : Cacti_circuit.Staged.t;
  sw_soa : Soa_kernel.t;
  sw_counts : Cacti_util.Diag.counts;
}
(** A completed sweep still in columnar form: every evaluated
    candidate's metrics live in the {!Soa_kernel.t} result columns, with
    records not yet materialized and no mat kept.  Consumers that only
    need an argmin (e.g. {!Cacti.Optimizer.select_soa_result}) can scan
    the columns and materialize just the winner via {!sweep_bank}. *)

val enumerate_soa :
  ?pool:Cacti_util.Pool.t ->
  ?cancel:Cacti_util.Cancel.t ->
  ?prune:float ->
  ?bound:bound_policy ->
  ?max_ndwl:int ->
  ?max_ndbl:int ->
  ?strict:bool ->
  ?screened:((Org.t * Mat.geometry) list * int * int * int) ->
  Array_spec.t ->
  sweep
(** The sweep itself, in columnar form: {!enumerate_counts} is this
    with every surviving bank record materialized. *)

val sweep_bank : sweep -> int -> t
(** Materialize candidate [i] of the sweep (its position in the screened
    enumeration order) into a full bank record.  Its metrics are read
    back from the columns and its mat is solved again through the stage
    memo — a pure function of its (salt, dims) keys, so the record is
    bit-identical to {!evaluate} of that candidate whatever the memo
    holds.  Raises [Invalid_argument] if the candidate did not evaluate
    (status is not [st_ok]). *)
