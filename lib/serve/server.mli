(** The [cacti_serve] transports.

    {b Batch} reads JSONL requests from a channel and writes one response
    line per request, in request order, synchronously — deterministic and
    pipe-friendly, used by tests and CI.

    {b Socket} serves concurrent clients over a Unix-domain socket: one
    reader thread per connection feeds the service's bounded admission
    queue via {!Service.admit}, a fixed pool of worker threads answers,
    and each connection serializes its response writes under a mutex so
    lines from concurrent workers never interleave.  Responses to one
    connection may be reordered with respect to its requests (match on
    [id]); requests refused by the admission queue are answered
    [serve/queue_full] (or [serve/draining]) immediately.

    {b HTTP} serves the same service over TCP with the HTTP/1.1 mapping
    of {!Http}: [POST /solve], [GET /stats], [GET /healthz], keep-alive
    connections, one in-order exchange at a time per connection.  Both
    listeners can run in the same server, sharing the admission queue,
    the caches, the drain and the chaos points. *)

val run_batch : Service.t -> in_channel -> out_channel -> int
(** Answer every line until EOF (responses flushed per line); returns the
    number of requests answered. *)

type t
(** A running server (one or both listeners). *)

val start :
  ?workers:int ->
  ?backlog:int ->
  ?path:string ->
  ?http:string * int ->
  Service.t ->
  unit ->
  t
(** Start listening on the Unix socket [path], the TCP address [http]
    ([host, port] — port 0 binds an ephemeral port, see {!http_port}),
    or both; raises [Invalid_argument] when neither is given.  An
    existing socket file is probed with connect(2) first: a stale file
    (no listener) is removed and replaced, a live one raises
    [Unix.Unix_error (EADDRINUSE, "bind", path)] instead of hijacking a
    running server's socket.  [workers] (default 1) is the number of
    solver threads draining the admission queue.  Each solve already
    fans out across domains via the service's pool, so more workers trade
    solve latency for concurrency between requests.  Raises
    [Unix.Unix_error] if a socket cannot be bound. *)

val http_port : t -> int option
(** The bound TCP port of the HTTP listener, if one was started —
    resolves port 0 to the kernel-assigned ephemeral port. *)

val stop : ?drain_ms:float -> t -> unit
(** Graceful shutdown.  Immediately stops accepting connections and
    refuses new request lines with [serve/draining]; then lets admitted
    work finish for up to [drain_ms] milliseconds (default 0); whatever
    is still running past the budget is cancelled through the service's
    drain token and answered [serve/draining].  Finally stops the
    workers, closes established connections, removes the socket file and
    returns once the server has stopped.  Safe to call from multiple
    threads or more than once; later calls return after the first
    completes. *)
