(** The full LLC study driver: builds the six system configurations of
    Section 4 (no L3; 24 MB SRAM; 48/72 MB LP-DRAM; 96/192 MB COMM-DRAM,
    each in its config-ED or config-C flavor) by running CACTI-D for every
    memory component, then simulates the NPB workloads on each. *)

type llc_kind =
  | No_l3
  | Sram_l3  (** 24 MB, 12-way *)
  | Lp_dram_ed  (** 48 MB, 12-way, energy/delay-optimized mats *)
  | Lp_dram_c  (** 72 MB, 18-way, capacity-optimized *)
  | Cm_dram_ed  (** 96 MB, 12-way *)
  | Cm_dram_c  (** 192 MB, 24-way *)

val all_kinds : llc_kind list
val kind_name : llc_kind -> string
(** The paper's figure labels: nol3, sram, lp_dram_ed, ... *)

type built = {
  kind : llc_kind;
  machine : Machine.t;
  l1_model : Cacti.Cache_model.t;
  l2_model : Cacti.Cache_model.t;
  l3_model : Cacti.Cache_model.t option;
  mem_model : Cacti.Mainmem.t;
  l3_bank_area : float;  (** m², vs the 6.2 mm² budget *)
}

(** {1 Individual CACTI-D solutions} (memoized per technology) *)

val solve_l1 : ?jobs:int -> Cacti_tech.Technology.t -> Cacti.Cache_model.t
(** The 32 KB 8-way private L1. *)

val solve_l2 : ?jobs:int -> Cacti_tech.Technology.t -> Cacti.Cache_model.t
(** The 1 MB 8-way private L2. *)

val solve_l3 : ?jobs:int -> Cacti_tech.Technology.t -> llc_kind -> Cacti.Cache_model.t option
(** The L3 of the given configuration; [None] for [No_l3]. *)

val solve_mem : ?jobs:int -> Cacti_tech.Technology.t -> Cacti.Mainmem.t
(** The 8 Gb DDR4-3200 x8 chip. *)

val build : ?jobs:int -> ?tech:Cacti_tech.Technology.t -> llc_kind -> built
(** Runs the CACTI-D solver for L1/L2/L3/main memory (seconds of work);
    results are memoized per technology instance. *)

type app_result = {
  app : Workload.app;
  config : built;
  stats : Stats.t;
  sys : Energy.system;
}

val run_app :
  ?params:Engine.run_params -> built -> Workload.app -> app_result

val run_all :
  ?jobs:int ->
  ?params:Engine.run_params ->
  ?kinds:llc_kind list ->
  ?apps:Workload.app list ->
  unit ->
  app_result list
(** The full Figure 4/5 grid: every app on every configuration.

    [jobs] controls two levels of parallelism: the CACTI solves inside
    {!build} (which run first, serially, against the memo tables) and the
    fan-out of the (app × config) simulation matrix over a domain pool.
    The result list is identical — element for element, bit for bit — for
    every [jobs] value: cells are fully independent and the pool preserves
    order.  If any cell raises, the exception is re-raised (with its
    backtrace) after all cells finish; use {!run_all_diag} to keep the
    surviving cells instead. *)

val run_all_diag :
  ?jobs:int ->
  ?params:Engine.run_params ->
  ?make_gen:(thread_id:int -> Workload.gen) ->
  ?kinds:llc_kind list ->
  ?apps:Workload.app list ->
  unit ->
  app_result list * Cacti_util.Diag.t list
(** {!run_all} with per-cell fault containment: a failing cell becomes an
    [error[study/cell_failed]] diagnostic naming the app and configuration,
    and the remaining cells are returned (still in grid order).
    [make_gen] replaces the synthetic address generators of every cell,
    as in {!Engine.run} ([llc_study --trace] passes the one
    [Mcreplay.Trace_io.thread_gens] builds); each app still supplies its
    instruction mix and synchronization, and its write ratio to
    {!Energy.system}. *)
