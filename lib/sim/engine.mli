(** The multicore execution engine.

    Implements the paper's Section 3.3 timing methodology: in-order cores
    with four concurrent hardware threads each (an FP instruction per cycle,
    other instructions every 4 cycles on average, at most one memory request
    per cycle), threads blocking on cache misses, MESI coherence between the
    private L2s (directory + cache-to-cache interventions), a banked shared
    L3 behind a crossbar, and DRAM channels with banked timing.  Barriers
    and locks synchronize threads and are accounted in their own
    execution-cycle categories. *)

type run_params = {
  total_instructions : int;  (** across all threads *)
  seed : int64;
  barrier_overhead : int;  (** cycles to release a barrier *)
}

val default_params : run_params
(** 16 M instructions, seed 42, 60-cycle barrier release. *)

val run :
  ?params:run_params ->
  ?make_gen:(thread_id:int -> Workload.gen) ->
  Machine.t ->
  Workload.app ->
  Stats.t
(** Simulates the application to completion of its instruction quota and
    returns the collected statistics (with [exec_cycles] set to the parallel
    wall-clock).  Deterministic for fixed [seed].  [make_gen] overrides the
    synthetic address generators: it is called once per thread, and must
    return a fresh generator on each call.  [Mcreplay.Trace_io.thread_gens]
    builds one that drives the machine from a recorded trace
    ({!Workload.replay}); the [app] still supplies the instruction mix
    and the synchronization cadences. *)

type audit = {
  directory_population : int;  (** lines with at least one sharer bit *)
  directory_sharer_bits : int;  (** total sharer bits across all lines *)
  l2_valid_lines : int;  (** valid lines summed over all private L2s *)
  directory_backed : bool;
      (** every sharer bit corresponds to a line actually present in that
          core's L2, and no zero-mask entry survives in the table *)
}
(** End-of-run snapshot of the coherence directory, for leak/consistency
    checking: a correct directory has [directory_sharer_bits <=
    l2_valid_lines] (inclusion) and [directory_backed = true]. *)

val run_audited :
  ?params:run_params ->
  Machine.t ->
  Workload.app ->
  Stats.t * audit
(** {!run}, additionally returning the directory {!audit}.  The returned
    statistics are bit-identical to what {!run} produces. *)
