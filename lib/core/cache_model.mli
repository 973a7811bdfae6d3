(** Cache solver: separately optimized data and tag arrays combined under
    the chosen access mode. *)

type t = {
  spec : Cache_spec.t;
  data : Cacti_array.Bank.t;  (** one data bank *)
  tag : Cacti_array.Bank.t;  (** one tag bank *)
  comparator : Cacti_circuit.Comparator.t;
  t_access : float;  (** s, full cache read (hit) *)
  t_random_cycle : float;
  t_interleave : float;
  dram : Cacti_array.Bank.dram_timing option;
  e_read : float;  (** J per cache-line read, tags included *)
  e_write : float;
  p_leakage : float;  (** W, all banks *)
  p_refresh : float;  (** W, all banks *)
  area : float;  (** m², all banks *)
  area_per_bank : float;
  area_efficiency : float;
  pipeline_stages : int;
}

val solve_diag :
  ?jobs:int ->
  ?cancel:Cacti_util.Cancel.t ->
  ?params:Opt_params.t ->
  ?strict:bool ->
  Cache_spec.t ->
  (t * Cacti_util.Diag.summary, Cacti_util.Diag.t list) result
(** Fault-contained solve with structured diagnostics: validates the spec
    and the optimization parameters, then solves the data and tag arrays,
    returning the combined solution plus a {!Cacti_util.Diag.summary} of
    the sweeps (candidates considered, rejections by reason, memo hits).
    [Error] carries the validation or no-solution diagnostics.  [strict]
    (default false) disables the sweep's per-candidate fault containment so
    the first NaN or exception propagates.  Both arrays are solved through
    {!Solve_cache.select_bank_result}.  [cancel] is threaded into both
    sweeps; a fired token aborts the solve with
    {!Cacti_util.Cancel.Cancelled}. *)

val solve :
  ?jobs:int ->
  ?params:Opt_params.t ->
  ?strict:bool ->
  Cache_spec.t ->
  t
(** Optimizer-selected solution.  [jobs] caps the worker domains used to
    fan out the candidate evaluations (default
    {!Cacti_util.Pool.default_jobs}); the result is identical for every
    worker count.  Data and tag solves are memoized in {!Solve_cache}.
    Raises {!Optimizer.No_solution} when no valid organization exists. *)

val solve_space : ?jobs:int -> ?params:Opt_params.t -> Cache_spec.t -> t list
(** All combined solutions passing the staged constraints with the tag array
    fixed to its optimum — the population behind the Figure 1 bubbles. *)
