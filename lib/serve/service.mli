(** The solve service behind the [cacti_serve] transports: decodes one
    request, answers it, and accounts for it.

    {b Fault containment.}  [handle_line]/[handle_json] never raise:
    malformed JSON, an undecodable request, an invalid spec, an empty
    design space, and even a stray exception escaping the model all become
    [ok: false] responses with structured diagnostics, so one poisoned
    request can never take the server down.  An exception that escapes a
    queue worker {e around} the handler (transport failure, injected
    fault) is likewise contained: counted under [internal_error] and the
    [worker] fault counter, logged as a [serve/worker_fault] warning, and
    answered best-effort.

    {b One memo set, one queue.}  Every request, from every transport and
    worker thread, is solved against the process-wide
    {!Cacti.Solve_cache} tables and admitted through one bounded queue;
    the service holds one response cache.

    {b Response cache.}  The service memoizes the wire answer of every
    successful solve under its {!response_key}.  A repeat request is
    answered from this cache without decoding the spec, validating it, or
    running the solver — the warm fast path — while remaining observationally
    identical to a bank-memo hit: same solution bytes, same
    [timing.cache_hits], same behaviour under deadlines, drain and the
    [service.slow_solve] chaos point.  [resp_cache:0] disables it (every
    request then runs the full decode + solve path).

    {b Admission queue.}  A bounded queue decouples transport threads
    (which accept requests) from solver workers (which answer them).
    {!admit} parses each line once at the edge and either answers it
    from the response cache, enqueues it, or refuses it immediately —
    [serve/queue_full] past the bound (with a [retry_after_ms] hint
    derived from the observed service rate), [serve/draining] once a
    drain began.  The batch transport bypasses the queue but fills the
    same tables.

    {b Deadlines.}  A request's [params.deadline_ms] starts at admission.
    A job still queued past its deadline is shed without solving
    ([serve/deadline_exceeded]); one already solving carries a
    {!Cacti_util.Cancel.t} token polled at the sweep's partition
    boundaries, so the solve aborts within milliseconds and answers
    [serve/deadline_exceeded].  Requests without a deadline are never
    cancelled (except by {!cancel_inflight}) and their solutions are
    bit-identical to an undeadlined server's.

    {b Counter partition.}  Every non-empty line is counted once at entry
    ([requests.lines]) and lands in exactly one outcome counter, so
    [lines = ok + invalid + no_solution + internal_error + overloaded +
    deadline_exceeded + draining] holds at every quiescent point — the
    chaos soak asserts it under fault injection.  Pre-solve traffic
    ({!presolve_point}) deliberately stays outside this partition.

    {b Observability.}  Every request is counted by kind and outcome, and
    its wall time lands in a log₂ latency histogram; a ["stats"] request
    (or {!stats_json}) exposes the counters, the solve- and
    response-cache hit rates, the queue depth, the observed service rate,
    and any registered auxiliary sections. *)

type t

val create :
  ?jobs:int ->
  ?queue_bound:int ->
  ?resp_cache:int ->
  ?log:(Cacti_util.Diag.t -> unit) ->
  unit ->
  t
(** [jobs]: worker domains per design-space sweep (the
    {!Cacti_util.Pool}), default {!Cacti_util.Pool.default_jobs}; a
    request's [params.jobs] overrides it.  [queue_bound]: admission-queue
    capacity, default 64.  [resp_cache]: response-cache entries, default
    4096; 0 disables the warm fast path.  [log]: sink for server-side
    warnings (worker faults); default prints to stderr. *)

val shard_cache : t -> int -> Cacti.Solve_cache.shard
(** The one memo set, whatever the index.  Kept only so that
    [perfbench/w_solve.ml]'s
    [Solve_cache.with_shard (Service.shard_cache svc 0) (fun () -> ...)]
    compiles. *)

val response_key : Cacti_util.Jsonx.t -> string
(** The response-cache key of a raw request: kind + spec + params minus
    the per-call [deadline_ms]/[jobs] knobs, as sorted-key JSON.  Pure —
    exposed for tests. *)

val handle_json :
  ?admitted_at:float -> t -> Cacti_util.Jsonx.t -> Cacti_util.Jsonx.t
(** Answer one parsed request; total and exception-safe.  [admitted_at]
    (default now) anchors the request's deadline, so time spent queued
    counts against its budget. *)

val handle_line : t -> string -> string
(** The full wire path: parse one JSONL line, answer it, print the
    response line (without the trailing newline).  A response-cache hit
    is answered as {!admit} answers it, by splicing the solution text
    stored with the entry into the line (no tree is re-rendered); the
    bytes equal the tree path's, [timing.wall_ms] aside. *)

val stats_json : t -> Cacti_util.Jsonx.t
(** The ["stats"] solution object. *)

val register_stats : t -> string -> (unit -> Cacti_util.Jsonx.t) -> unit
(** Append a named auxiliary section to every subsequent {!stats_json}
    (e.g. the pre-solver's progress).  The thunk runs outside the
    counter lock and must not raise. *)

val service_rate : t -> float option
(** Completions per second over the recent window (None until two
    completions land inside it) — what [retry_after_ms] hints derive
    from. *)

(** {1 Admission queue} *)

val admit : t -> reply:(string -> unit) -> string -> unit
(** Admit one request line from a transport thread: parse it once, then
    enqueue it for the workers or answer it immediately through [reply] —
    response-cache hits, malformed lines, [serve/draining] refusals, and
    [serve/queue_full] refusals (with the queue depth and a
    [retry_after_ms] hint) never touch the queue.  [reply] is retained
    until the job's response is written; it must tolerate being called
    from a worker thread. *)

val queue_depth : t -> int
(** Queued jobs. *)

val in_flight : t -> int
(** Jobs dequeued by a worker whose response is not yet written. *)

val idle : t -> bool
(** No queued and no in-flight work (the drain's termination test). *)

val run_worker : t -> unit
(** Dequeue and run jobs until {!stop_workers}; meant for a dedicated
    thread per worker.  Sheds queued jobs whose deadline already expired
    without solving them. *)

val stop_workers : t -> unit
(** Wake every worker and make it return once the queue drains;
    subsequent {!admit}s are refused. *)

(** {1 Pre-solving} *)

val presolve_point :
  ?cancel:Cacti_util.Cancel.t ->
  t ->
  Cacti_util.Jsonx.t ->
  [ `Solved | `Warm | `Failed of string ]
(** Solve one grid point exactly as an admitted request would be —
    same memo tables, same response-cache entry — but outside the
    request counters and the latency histogram (pre-solve traffic is not
    client traffic).  [`Warm]: the point was already response-cached
    (probed without touching the hit-rate counters).  [cancel] (default:
    the drain token) aborts the solve; {!Cacti_util.Cancel.Cancelled}
    propagates to the caller. *)

(** {1 Graceful drain} *)

val begin_drain : t -> unit
(** Stop admitting: every subsequent {!admit} answers [serve/draining].
    Queued and in-flight work continues. *)

val draining : t -> bool

val drain_token : t -> Cacti_util.Cancel.t
(** The parent token of every solve — chain pre-solver (or other
    background) tokens to it so {!cancel_inflight} cancels them too. *)

val cancel_inflight : t -> unit
(** Fire the drain token every solve chains to: in-flight sweeps abort at
    their next poll point and answer [serve/draining].  Irreversible. *)
