(** Idle-time pre-solver: walks a tech-node × capacity × associativity
    grid in a background thread so in-grid requests are warm before the
    first client asks.

    Each grid point goes through {!Service.presolve_point}: same memo
    tables and response-cache entry as an admitted request — but outside
    the request counters, so pre-solve traffic never skews the
    client-facing stats (its own progress shows up as the ["presolve"]
    auxiliary stats section instead).

    {b Low priority.}  The walker waits for the service to be idle (no
    queued, no in-flight work) before each point and re-checks every
    10 ms, so a client request landing mid-pass stalls the pre-solver,
    not the other way round.

    {b Lifecycle.}  An optional period re-walks the grid (points already
    warm are cheap probes); [on_pass] runs after every completed pass —
    the place to snapshot the warm cache.  {!stop} cancels an in-flight
    pre-solve through a token chained to the service's drain token, so a
    server drain also aborts it. *)

type grid = {
  nodes_nm : float list;  (** feature sizes, e.g. [[90.; 65.; 45.; 32.]] *)
  capacities : int list;  (** cache capacities in bytes *)
  assocs : int list;  (** set associativities *)
}

val points : grid -> Cacti_util.Jsonx.t list
(** The cross product as raw cache requests, in walk order — exposed for
    tests and for benchmarks that want to replay the grid as client
    traffic. *)

type t

val start :
  ?grid:grid ->
  ?period_s:float ->
  ?on_pass:(unit -> unit) ->
  Service.t ->
  t
(** Spawn the walker thread and register its ["presolve"] stats section.
    [grid] defaults to the four built-in ITRS nodes × 32 KiB..1 MiB ×
    assoc {4, 8}: 48 points.  [period_s] (default: none) re-walks the
    grid that many seconds after each pass; without it the thread exits
    after one pass.  [on_pass] (exceptions swallowed) runs after every
    completed pass. *)

val stats_json : t -> Cacti_util.Jsonx.t
(** [grid_points], [points_done], [solved], [already_warm], [failed],
    [passes], [stopped] — the ["presolve"] stats section. *)

val stop : t -> unit
(** Cancel any in-flight point, stop the walker and join it.
    Idempotent. *)
