(** Memoized design-space solves.

    The LLC study of Section 4 re-solves identical arrays over and over:
    the six machine variants share their L1, L2 and main-memory chips, and
    every table/figure of the reproduction harness re-derives the same
    solutions.  This module caches the selected {!Cacti_array.Bank.t} under
    a canonical fingerprint of the array spec, the optimization parameters
    and the enumeration bounds, so repeated solves cost one hash lookup.

    There is one set of tables per process (selected banks, screen
    contexts, incremental counters), shared by every caller: the CLIs,
    the study harness, and every worker and transport thread of
    [cacti_serve].  Each table is its own mutex-guarded
    {!Cacti_util.Lru}, safe to use from multiple threads and domains
    (e.g. under {!Cacti_util.Pool}); no other lock is taken.  Entries are
    deterministic, so a racing recomputation can only store the same
    solution. *)

type stats = { hits : int; misses : int }

type shard = unit
(** Kept only so that [perfbench/w_solve.ml]'s
    [with_shard (Service.shard_cache svc 0) (fun () -> ...)] compiles:
    there is one memo set, so a shard names nothing. *)

val with_shard : shard -> (unit -> 'a) -> 'a
(** [with_shard () f] is [f ()].  Kept for the same caller alone. *)

type outcome = {
  bank : Cacti_array.Bank.t;
  counts : Cacti_util.Diag.counts;
      (** rejection histogram of the sweep that produced [bank]; for a
          cache hit, the histogram of the original sweep *)
  from_cache : bool;
}

val select_bank_result :
  ?pool:Cacti_util.Pool.t ->
  ?cancel:Cacti_util.Cancel.t ->
  ?max_ndwl:int ->
  ?max_ndbl:int ->
  ?strict:bool ->
  ?what:string ->
  params:Opt_params.t ->
  Cacti_array.Array_spec.t ->
  (outcome, Cacti_util.Diag.t list) result
(** The staged selection of Section 2.4 over the spec's design space,
    memoized: {!Optimizer.select_soa_result} over
    {!Cacti_array.Bank.enumerate_soa} with area and branch-and-bound
    pruning (see {!Cacti_array.Bank.bound_policy}; the energy rule engages
    only for dynamic-energy-only weightings), materializing only the
    selected bank.  The sweep keeps no mats: the winner's mat is
    re-derived from the stage memo ({!Cacti_array.Bank.sweep_bank}).  The
    solve reads and fills the incremental screen context and publishes
    the result to the selected-bank memo.  Every table holds pure
    functions of its keys, so the selected bank is the one the naive
    per-candidate reference in [test/oracle/solver_naive.ml] picks from
    empty tables.

    Validates the spec and the optimization parameters first; an invalid
    input or an empty surviving design space returns structured
    diagnostics ([reason] ["no_solution"] carries a ["sweep_counts"] info
    note with the rejection histogram).  Failed solves are not memoized.
    [strict] disables the sweep's per-candidate fault containment.

    [cancel] is threaded into the sweep and polled at partition
    boundaries (see {!Cacti_array.Bank.enumerate_counts}); a fired token
    aborts the solve with {!Cacti_util.Cancel.Cancelled}.  Cancelled
    solves are never memoized (only successful sweeps are), and a token
    that never fires leaves the solution bit-identical. *)

val select_bank :
  ?pool:Cacti_util.Pool.t ->
  ?cancel:Cacti_util.Cancel.t ->
  ?max_ndwl:int ->
  ?max_ndbl:int ->
  ?strict:bool ->
  ?what:string ->
  params:Opt_params.t ->
  Cacti_array.Array_spec.t ->
  Cacti_array.Bank.t
(** Like {!select_bank_result} but raising: {!Optimizer.No_solution} when
    the spec admits no valid organization, [Invalid_argument] on an invalid
    spec or parameters.  [what] names the array in {!Optimizer.No_solution}
    errors. *)

val stats : unit -> stats
(** Cumulative hit/miss counters since start-up (or the last {!clear}). *)

val size : unit -> int
(** Number of memoized solves currently held. *)

val set_capacity : int option -> unit
(** Bound the table to at most that many entries, evicting the
    least-recently-used solves first ("LRU-ish": recency is tracked per
    lookup, eviction scans for the oldest stamp).  [None] — the default —
    is unbounded, which suits one-shot CLIs and studies; [cacti_serve]
    sets [Some 4096] before it loads its cache file.
    Setting a cap below the current {!size} evicts immediately.
    Raises [Invalid_argument] on a negative cap. *)

val capacity : unit -> int option

(** {1 Incremental re-solve}

    A second table caches screen contexts by {!Cacti_array.Mat.screen_key}:
    the rows-independent screen tree plus the survivors of its latest
    instantiation.  Because the key excludes [n_rows] and the technology
    node, a re-solve that differs from a cached spec only in technology
    reuses the screened survivors outright (a {e full hit}), and one that
    differs only in size re-runs just the rows-per-subarray division over
    the prebuilt tree (a {e rows hit}) — only specs with a genuinely new
    shape (cell kind, associativity/row bits, port width, page size, grid
    bounds) pay a full grid screen.  Consulted by every solve that misses
    the selected-bank memo. *)

type incremental = {
  full_hits : int;  (** screened survivors reused outright *)
  rows_hits : int;  (** tree reused, rows division re-instantiated *)
  misses : int;  (** full grid screens (new shape) *)
}

val incremental_stats : unit -> incremental
(** Cumulative counters since start-up (or the last {!clear}). *)

val screened_for :
  ?max_ndwl:int ->
  ?max_ndbl:int ->
  Cacti_array.Array_spec.t ->
  (Cacti_array.Org.t * Cacti_array.Mat.geometry) list * int * int * int
(** The screened survivors for a spec, through the incremental context:
    bit-identical to [Mat.screen ~spec ()] with the same grid bounds
    (defaults 64x64).  Updates the counters above. *)

val clear : unit -> unit
(** Drop all entries of every table (banks, screen contexts), reset their
    counters, and reset {!Cacti_array.Bank}'s stage memo (used by
    benchmarks to measure cold-vs-warm solve times). *)

(** {1 Persistence}

    Save/load the memo table so a restarted process starts warm.  The file
    is a one-line versioned header (magic, format version, compiler
    version, MD5 digest, payload length) followed by the marshalled entry
    list; {!save} writes to a temporary file, fsyncs it, atomically
    renames it over the destination and fsyncs the containing directory
    (best-effort), so a crash — even a power cut — mid-save can never
    corrupt an existing cache file.  {!load} validates the header, the
    payload length and the checksum before unmarshalling and returns
    [Error] — never raises — on a missing, truncated, torn, corrupt or
    version-mismatched file, so callers degrade to a cold start. *)

val save : string -> (int, string) result
(** Write every entry of the selected-bank memo to [path]; returns the
    entry count. *)

val load : string -> (int, string) result
(** Merge the file's entries into the selected-bank memo (existing keys
    win, the capacity bound is enforced); returns the number of entries
    read. *)
