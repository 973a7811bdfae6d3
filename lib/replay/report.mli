(** Deterministic per-access and aggregate output for trace replay.

    Two per-access encodings over the same fields — CSV (one header line,
    then one row per access) and JSONL (one object per line) — plus an
    aggregate summary as JSON and as a short human paragraph.  Every byte
    is a pure function of the trace and the replay config (no wall-clock,
    no environment), so repeated runs produce identical output; CI diffs a
    golden CSV against a checked-in trace on this guarantee.

    Fields: [seq] (0-based access index), [tid], [op] (R/W), [addr] (hex
    byte address), [level] (L1/L2/L3/MEM — where the access was served),
    [cycles], [victims] (the lines evicted by this access's fills, as
    [LEVEL:0xADDR:c|d] with [d] marking a dirty victim, joined with [;],
    or [-]), [reason] ([hit] — no fill; [cold] — filled without any
    eviction; [evict] — at least one line was evicted).

    {b Encoding contract.}  The row appenders are allocation-free: each row
    is assembled in a per-domain scratch buffer, so concurrent sharded
    renders never share it, and appended to the caller's buffer with one
    blit; only growing that buffer allocates.  (Two systhreads of one
    domain share that scratch buffer and must not render at the same
    time.)  Every int prints exactly as
    [Printf]'s [%d] (decimal fields) or [%x] (addresses, after [0x]) would
    print it, for every int including negatives, [min_int] and [max_int].
    A qcheck property in [test/test_replay.ml] compares whole rows against
    the Printf renderers kept in [test/oracle/report_printf.ml]. *)

val csv_header : string
(** ["seq,tid,op,addr,level,cycles,victims,reason"]. *)

val append_csv_row :
  Buffer.t ->
  seq:int -> tid:int -> write:bool -> addr:int -> line_bytes:int ->
  Replayer.outcome -> unit
(** Appends one row and its newline. *)

val append_jsonl_row :
  Buffer.t ->
  seq:int -> tid:int -> write:bool -> addr:int -> line_bytes:int ->
  Replayer.outcome -> unit
(** Appends one JSON object and its newline; victims become
    [{"level":..,"addr":..,"dirty":..}] objects. *)

val summary_json :
  config:Replayer.config -> Replayer.summary -> Cacti_util.Jsonx.t
(** Schema ["cacti-d/replay-summary/v1"]: the replay config echoed (per
    level: lines, assoc, latency, policy name), every {!Replayer.summary}
    counter, and derived hit rates.  Deterministic — contains no timing. *)

val summary_human : Replayer.summary -> string
(** A few human-readable lines (hit rates per level, evictions,
    writebacks, total cycles) for stderr. *)
