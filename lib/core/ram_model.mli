(** Plain (non-cache) RAM solver: a scratchpad or embedded memory macro
    with a given word width, in any of the three technologies. *)

type spec = {
  capacity_bytes : int;
  word_bits : int;  (** read/write port width *)
  n_banks : int;
  ram : Cacti_tech.Cell.ram_kind;
  sleep_tx : bool;
  tech : Cacti_tech.Technology.t;
}

val create :
  ?word_bits:int ->
  ?n_banks:int ->
  ?ram:Cacti_tech.Cell.ram_kind ->
  ?sleep_tx:bool ->
  tech:Cacti_tech.Technology.t ->
  capacity_bytes:int ->
  unit ->
  spec
(** Defaults: 64-bit words, 1 bank, SRAM.  Raises [Invalid_argument] on an
    invalid spec (see {!validate}). *)

val validate : spec -> (spec, Cacti_util.Diag.t list) result
(** Positive capacity/word/bank parameters and capacity divisible into
    banks; collects every failure. *)

type t = {
  spec : spec;
  bank : Cacti_array.Bank.t;
  t_access : float;
  t_random_cycle : float;
  t_interleave : float;
  dram : Cacti_array.Bank.dram_timing option;
  e_read : float;
  e_write : float;
  p_leakage : float;  (** all banks *)
  p_refresh : float;
  area : float;  (** all banks *)
  area_efficiency : float;
}

val solve_diag :
  ?jobs:int ->
  ?cancel:Cacti_util.Cancel.t ->
  ?params:Opt_params.t ->
  ?strict:bool ->
  spec ->
  (t * Cacti_util.Diag.summary, Cacti_util.Diag.t list) result
(** Fault-contained solve with structured diagnostics: validates the spec
    and the optimization parameters, then solves the bank, returning the
    macro model plus the sweep summary.  [strict] disables the sweep's
    per-candidate fault containment.  [cancel] aborts the sweep with
    {!Cacti_util.Cancel.Cancelled} when the token fires (see
    {!Solve_cache.select_bank_result}). *)

val solve :
  ?jobs:int ->
  ?params:Opt_params.t ->
  ?strict:bool ->
  spec ->
  t
(** [jobs] caps the worker domains of the design-space sweep; solves are
    memoized in {!Solve_cache}.  Raises {!Optimizer.No_solution} when no
    valid organization exists. *)
