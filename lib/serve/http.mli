(** Dependency-free HTTP/1.1 transport for the solve service.

    Carries the exact JSONL protocol bodies over HTTP so fleet tooling
    (load balancers, curl, sidecars) can talk to [cacti_serve] without a
    bespoke client:

    - [POST /solve] — body is one JSONL request; the response body is
      the JSONL response line.  Status maps the outcome for LB-level
      reactions: 200 for everything answered in-band (including
      per-request errors like an invalid spec), 429 + [Retry-After] for
      [serve/queue_full] refusals, 503 for [serve/draining].
    - [GET /stats] — the ["stats"] response body; counted as a request
      line exactly like its JSONL twin.
    - [GET /healthz] (or HEAD) — 200 [{"status":"ok"}] while accepting,
      503 [{"status":"draining"}] during a drain; deliberately outside
      the request counters so probes do not drown the stats.

    Connections are HTTP/1.1 keep-alive by default ([Connection: close]
    honoured, HTTP/1.0 closes unless it asks otherwise); every response
    carries [Content-Length], never chunked.  One exchange at a time per
    connection: [POST /solve] goes through the same bounded admission
    queue as the socket transport ({!Service.admit}), the connection
    thread blocking until its response lands — so deadlines, drain and
    chaos injection ([server.read] mangles the body, [server.write]
    fires before each response) behave identically on both transports.

    Limits: request line and each header ≤ 8 KiB, ≤ 64 headers, body
    ≤ 1 MiB (413 past it); [Transfer-Encoding] is rejected (400).
    [Expect: 100-continue] is honoured before the body is read. *)

(** {1 Wire pieces} — exposed for unit tests *)

type request = {
  meth : string;
  target : string;
  version : string;
  headers : (string * string) list;  (** names lowercased *)
  body : string;
}

val parse_request_line : string -> (string * string * string, string) result
(** ["GET /x HTTP/1.1"] -> [(method, target, version)]. *)

val parse_header : string -> (string * string, string) result
(** ["Name: value"] -> [(lowercased name, trimmed value)]. *)

val keep_alive : request -> bool
(** Keep-alive per RFC 9112 defaults plus the [Connection] header. *)

val status_of_body : string -> int * (string * string) list
(** HTTP status + extra headers for a service response line: 200 unless
    the first diagnostic is a [queue_full] (429, [Retry-After] from the
    response's [retry_after_ms]) or [draining] (503) refusal. *)

(** {1 Serving} *)

val serve_conn : Service.t -> Unix.file_descr -> unit
(** Serve one connection until EOF, [Connection: close], or a framing
    error; never raises.  The caller owns the fd (it is not closed
    here). *)
