(** Main-memory DRAM chip model (Section 2.1).

    A chip is [n_banks] CACTI-D banks plus a command/IO interface.  The
    organization captures the number of banks, the page size (the total
    sense amplifiers in a subbank are constrained to equal it), the internal
    prefetch width and the burst length; the energy model is adjusted for
    burst-mode operation, and the timing model reports the
    ACTIVATE/READ/WRITE/PRECHARGE parameters of the datasheet: tRCD, CAS
    latency, tRAS, tRP, tRC and the multibank-interleave bound tRRD. *)

type interface = {
  name : string;
  io_delay : float;  (** s added to CAS by the IO path/DLL *)
  io_energy_per_bit : float;  (** J per transferred bit at the pins *)
  io_standby : float;  (** W of always-on interface (DLL, clocks, buffers) *)
}

val ddr3 : interface
val ddr4 : interface

type chip = {
  capacity_bits : int;
  n_banks : int;
  io_bits : int;  (** data pins: x4 / x8 / x16 *)
  prefetch : int;  (** internal prefetch width, in io words *)
  burst : int;  (** burst length *)
  page_bits : int;
  ram : Cacti_tech.Cell.ram_kind;
  tech : Cacti_tech.Technology.t;
  interface : interface;
}

val create :
  ?n_banks:int ->
  ?io_bits:int ->
  ?prefetch:int ->
  ?burst:int ->
  ?page_bits:int ->
  ?ram:Cacti_tech.Cell.ram_kind ->
  ?interface:interface ->
  tech:Cacti_tech.Technology.t ->
  capacity_bits:int ->
  unit ->
  chip
(** Defaults: 8 banks, x8, prefetch 8, burst 8, 8 Kb pages, COMM-DRAM,
    DDR3 interface.  Raises [Invalid_argument] on an invalid chip (see
    {!validate}). *)

val create_result :
  ?n_banks:int ->
  ?io_bits:int ->
  ?prefetch:int ->
  ?burst:int ->
  ?page_bits:int ->
  ?ram:Cacti_tech.Cell.ram_kind ->
  ?interface:interface ->
  tech:Cacti_tech.Technology.t ->
  capacity_bits:int ->
  unit ->
  (chip, Cacti_util.Diag.t list) result
(** Like {!create} but returns every validation failure as a structured
    diagnostic instead of raising on the first. *)

val validate : chip -> (chip, Cacti_util.Diag.t list) result
(** Chip-parameter consistency: positive geometry, capacity divisible into
    banks × pages, and a DRAM cell type (an SRAM main-memory chip has no
    ACTIVATE/PRECHARGE timings to report).  Collects every failure. *)

type t = {
  chip : chip;
  bank : Cacti_array.Bank.t;
  t_rcd : float;
  t_cas : float;
  t_ras : float;
  t_rp : float;
  t_rc : float;
  t_rrd : float;
  t_access : float;  (** tRCD + CAS: closed-page random read latency *)
  e_activate : float;  (** J, ACTIVATE + PRECHARGE of one page *)
  e_read : float;  (** J per READ command (one burst) excluding activate *)
  e_write : float;
  p_refresh : float;  (** W, all banks *)
  p_standby : float;  (** W: periphery leakage + interface *)
  area : float;  (** m², chip *)
  area_efficiency : float;
}

val solve_diag :
  ?jobs:int ->
  ?cancel:Cacti_util.Cancel.t ->
  ?params:Opt_params.t ->
  ?strict:bool ->
  chip ->
  (t * Cacti_util.Diag.summary, Cacti_util.Diag.t list) result
(** Fault-contained solve with structured diagnostics: validates the chip
    and the optimization parameters, then solves the bank, returning the
    chip model plus the sweep summary.  [strict] disables the sweep's
    per-candidate fault containment.  The bank is solved through
    {!Solve_cache.select_bank_result} on a 128x256 partition grid.
    [cancel] aborts the sweep with {!Cacti_util.Cancel.Cancelled} when the
    token fires. *)

val solve :
  ?jobs:int ->
  ?params:Opt_params.t ->
  ?strict:bool ->
  chip ->
  t
(** Default parameters emphasize area efficiency (price per bit), like the
    commodity part of the Table 2 validation.  [jobs] caps the worker
    domains of the design-space sweep; solves are memoized in
    {!Solve_cache}.  Raises {!Optimizer.No_solution} when no organization
    satisfies the page constraint. *)
