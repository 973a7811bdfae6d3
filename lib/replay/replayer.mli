(** Replay a real memory-access stream through an L1→L2→L3 hierarchy.

    The replayer drives {!Mcsim.Cache_sim} instances — one L1 and L2 per
    core (thread ids map onto cores round-robin), one shared L3 — with a
    pluggable replacement policy per level, and reports a deterministic
    per-access {!outcome}: the level that hit, the cycle cost, the victims
    evicted by the fills, and the coherence actions taken.

    {b Timing model.}  Latencies are additive: an access pays the latency
    of every level it touches ([l1], [+l2] on an L1 miss, [+l3] on an L2
    miss, [+mem_latency] on an L3 miss).  There is no contention or
    overlap — this is the per-access cost model of trace-driven cache
    analysis (CacheTrace-style), not the timed multicore engine
    ({!Mcsim.Engine}), which remains the tool for throughput studies.

    {b Coherence model.}  With [n_cores > 1], a write invalidates every
    other core's copy and a read miss that finds a peer's dirty copy
    downgrades it (counting a cache-to-cache transfer) and pushes the dirty
    data down.  Dirty victims write back level by level; writebacks that
    reach memory are counted.

    Everything is sequential in trace order and purely deterministic: the
    same trace and config produce byte-identical per-access output on every
    run. *)

type level = {
  lines : int;  (** capacity in cache lines *)
  assoc : int;
  latency : int;  (** cycles *)
  policy : Mcsim.Policy.t;
}

type config = {
  l1 : level;  (** per core *)
  l2 : level;  (** per core *)
  l3 : level option;  (** shared *)
  mem_latency : int;  (** cycles *)
  line_bytes : int;  (** power of two *)
  n_cores : int;
}

val default_config : config
(** A Skylake-like desktop hierarchy: 32 KB / 8-way L1 (4 cycles),
    1 MB / 16-way L2 (14), 8 MB / 16-way L3 (42), 200-cycle memory,
    64-byte lines, one core, LRU everywhere. *)

val with_policies :
  l1:Mcsim.Policy.t -> l2:Mcsim.Policy.t -> l3:Mcsim.Policy.t ->
  config -> config

val with_preset : Mcsim.Policy.preset -> config -> config
(** Applies the preset's per-level policy tuple, keeping the geometry. *)

val of_machine : Mcsim.Machine.t -> config
(** The hierarchy geometry of a simulator machine (L3 capacity summed over
    its banks, L3 latency includes one crossbar traversal, memory latency
    estimated from the DRAM timing), LRU at every level ({!with_preset}
    applies a CPU's policies).  Used by [llc_study --replay] to re-run the
    stacked-LLC configurations on a real trace. *)

type outcome = {
  mutable level : int;  (** 0 = L1 hit, 1 = L2 hit, 2 = L3 hit, 3 = memory *)
  mutable cycles : int;
  mutable l1_victim : int;  (** packed [line*4+state]; -1 = none *)
  mutable l2_victim : int;
  mutable l3_victim : int;
      (** at most one victim is recorded per level per access (a writeback
          allocation can evict a second L3 line; counters count them all) *)
  mutable writebacks : int;  (** dirty lines pushed to memory *)
  mutable invalidations : int;  (** peer copies invalidated *)
  mutable c2c : bool;  (** served or upgraded via a peer's dirty copy *)
}

type t

val create : config -> t
(** Raises [Invalid_argument] on a bad geometry (non-positive sizes,
    [line_bytes] not a power of two, a Tree-PLRU level whose associativity
    is not a power of two). *)

val step : t -> tid:int -> write:bool -> addr:int -> outcome
(** Replays one access and returns the per-access outcome.  The returned
    record is owned by [t] and overwritten by the next [step] — consume it
    (or copy the fields) before stepping again.  Allocation-free. *)

type summary = {
  accesses : int;
  reads : int;
  writes : int;
  l1_hits : int;
  l2_accesses : int;
  l2_hits : int;
  l3_accesses : int;
  l3_hits : int;
  mem_accesses : int;
  l1_evictions : int;
  l2_evictions : int;
  l3_evictions : int;
  writebacks : int;
  invalidations : int;
  c2c_transfers : int;
  total_cycles : int;
}

val summary : t -> summary

val empty_summary : summary
(** Every summary field is an additive counter, which is what makes the
    sharded merge (a field-wise sum) exact. *)

(** {1 Set-sharded parallel replay}

    With power-of-two [line_bytes], the L1/L2/L3 set indices of an
    address all embed the same low bits of [addr / line_bytes]: every
    level is a {!Mcsim.Cache_sim}, which always builds a power-of-two set
    count ({!Mcsim.Cache_sim.set_count}).  Partitioning a trace on [m] of
    those bits gives each worker a disjoint slice of every cache level — all
    evictions, inclusion kills, writeback cascades, peer invalidations and
    c2c transfers stay inside one shard — so per-shard replays compose to
    {b bit-identical} summaries, and an original-index merge reproduces the
    serial per-access stream byte for byte (see DESIGN.md). *)

val shard_plan : config -> bits:int -> (int, Cacti_util.Diag.t) result
(** The shard bit-count actually usable for [cfg]: [min] of the request,
    the set bits of every level as {!Mcsim.Cache_sim.set_count} builds it
    (a geometry whose set count is not a power of two shards on the
    rounded-down count), and {!Trace_io.max_shard_bits}.  [Ok 0] for
    [bits <= 0] (serial).  [Error] (warning severity, reason
    ["shard_unsupported"]) when [line_bytes] is not a power of two —
    callers fall back to serial replay.  Raises [Invalid_argument], as
    {!Mcsim.Cache_sim.create} does, when a level's [lines] is not a
    positive multiple of its [assoc]. *)

type render =
  Buffer.t -> seq:int -> tid:int -> write:bool -> addr:int -> outcome -> unit
(** Renders one per-access row (newline-terminated) into the buffer; [seq]
    is the original 0-based trace index.  [Report.append_csv_row] /
    [append_jsonl_row] partially applied fit this shape. *)

val run_serial :
  ?render:render ->
  ?emit:(string -> unit) ->
  config ->
  (f:(tid:int -> write:bool -> addr:int -> unit) -> unit) ->
  summary
(** Replays the records that the iterator passes to [f], in order, through
    one replayer; rendered rows are streamed through [emit] in ~64 KB
    slabs.  This is the loop of {!run_sharded} at 0 shard bits, and the
    way to replay a stream that is read once and never held in memory,
    such as [Trace_io.iter_channel] over stdin. *)

val run_sharded :
  ?jobs:int ->
  ?bits:int ->
  ?render:render ->
  ?emit:(string -> unit) ->
  config ->
  Trace_io.source ->
  summary * Cacti_util.Diag.t list
(** Replays the whole trace, sharded [2^bits] ways across a
    [Cacti_util.Pool] of [jobs] domains ([bits] defaults to [clog2 jobs],
    [jobs] to [Pool.default_jobs ()]).  Rendered rows are merged back into
    original trace order and streamed through [emit] in ~64 KB slabs, so
    output is byte-identical to a serial replay for {e any} [jobs]/[bits].
    When the plan resolves to 0 bits (including the [shard_unsupported]
    fallback, returned in the diag list) {!run_serial} replays the trace. *)

val run_configs :
  ?jobs:int ->
  config array ->
  Trace_io.source ->
  summary array * Cacti_util.Diag.t list
(** The summary of every config over the whole trace, as {!run_sharded}
    without rendering returns it for each one alone.  The trace is bucketed
    once on the finest shard plan that every config supports (from [clog2
    jobs] bits), and the (config × shard) work items fan out over one
    [Cacti_util.Pool] of [jobs] domains, so a single config still uses
    every domain.  When the plan resolves to 0 bits each config replays
    serially; a [shard_unsupported] warning (also for configs of different
    [line_bytes]) is returned in the diag list.  Summaries are identical
    for any [jobs]. *)
