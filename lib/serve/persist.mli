(** Warm-cache persistence policy for [cacti_serve]: wraps
    {!Cacti.Solve_cache.save}/[load] in the structured diagnostics the
    daemon logs.

    The daemon keeps one memo set and persists it to one file, in the
    unchanged format version 3: a cache file saved by an earlier,
    sharded server still loads, and its [F.shard<i>] siblings are
    ignored (their entries re-solve on first use).

    Loading is always best-effort — a missing, truncated, torn, corrupt
    or version-mismatched file degrades to a cold start with a
    [warning[serve/cache_load]] (missing files are only an [info]: a first
    boot is not a fault).  Saving failures are [warning[serve/cache_save]];
    the daemon keeps running either way.  Both paths pass through the
    {!Chaos} points ["persist.load"]/["persist.save"], and an injected or
    real I/O exception is contained to the same warnings. *)

val load : string -> Cacti_util.Diag.t list
(** Merge the file into {!Cacti.Solve_cache}; returns the diagnostics to
    log (never raises, never empty). *)

val save : string -> Cacti_util.Diag.t list
(** Persist the current memo table atomically; returns the diagnostics to
    log (never raises, never empty). *)
