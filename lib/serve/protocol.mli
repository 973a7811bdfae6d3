(** The JSONL wire protocol of [cacti_serve].

    One request per line, one response per line, in both transports (batch
    stdin/stdout and the Unix-domain socket).  A request is

    {v
    {"id": <any json>, "kind": "cache"|"ram"|"mainmem"|"stats",
     "spec": {...}, "params": {...}}
    v}

    and every response echoes the request's [id] verbatim:

    {v
    {"id": ..., "ok": true,  "solution": {...},
     "timing": {"wall_ms": 1.83, "cache_hits": 2}}
    {"id": ..., "ok": false, "diagnostics": [{"severity": ..., ...}],
     "timing": {"wall_ms": 0.02, "cache_hits": 0}}
    v}

    Spec and params objects mirror the [cacti_d] CLI options; every field
    except [tech_nm] and the capacity is optional with the library's
    defaults.  Malformed input of any shape — bad JSON, a missing field, a
    wrong type, an invalid spec — decodes to structured
    {!Cacti_util.Diag.t} errors, never an exception.

    Technologies travel as ["tech_nm"] (nanometers, up to six decimal
    places); {!nm_of_tech} rounds so that encode→decode reconstructs the
    identical {!Cacti_tech.Technology.t} for any node expressible at that
    precision. *)

type spec =
  | Cache of Cacti.Cache_spec.t
  | Ram of Cacti.Ram_model.spec
  | Mainmem of Cacti.Mainmem.chip

type params = {
  opt : Cacti.Opt_params.t;
  strict : bool;  (** disable per-candidate fault containment *)
  jobs : int option;  (** worker domains for the sweep; [None] = server default *)
  deadline_ms : float option;
      (** request deadline, milliseconds from admission; the server sheds
          the request (still queued) or cancels its solve (in flight) once
          the budget is spent.  Must be positive and finite; [None] = no
          deadline *)
}

type request =
  | Solve of { id : Cacti_util.Jsonx.t; spec : spec; params : params }
  | Stats of { id : Cacti_util.Jsonx.t }

val kind_of_request : request -> string
(** ["cache"], ["ram"], ["mainmem"] or ["stats"]. *)

val request_id : Cacti_util.Jsonx.t -> Cacti_util.Jsonx.t
(** Best-effort [id] extraction from a raw request value, for responses to
    requests that failed to decode ({!Cacti_util.Jsonx.Null} when absent). *)

val parse_request : Cacti_util.Jsonx.t -> (request, Cacti_util.Diag.t list) result
(** Full decode: envelope, kind, spec (via the model validators, so an
    inconsistent geometry reports every failure) and params. *)

val encode_request : request -> Cacti_util.Jsonx.t
(** Canonical encoding; [parse_request (encode_request r)] reconstructs
    [r] exactly (up to the {!nm_of_tech} precision). *)

(** {1 Responses} *)

type response = {
  r_id : Cacti_util.Jsonx.t;
  r_ok : bool;
  r_solution : Cacti_util.Jsonx.t option;  (** present iff [r_ok] *)
  r_diagnostics : Cacti_util.Diag.t list;  (** non-empty iff not [r_ok] *)
  r_wall_ms : float;
  r_cache_hits : int;  (** memo hits while answering this request *)
  r_retry_after_ms : float option;
      (** on refusals (overload, draining): a hint for when to retry,
          estimated from the queue depth and recent solve latency *)
}

val response_to_json : response -> Cacti_util.Jsonx.t
val response_of_json : Cacti_util.Jsonx.t -> (response, string) result

(** {1 Encoders shared with [cacti_d --json]} *)

val diag_to_json : Cacti_util.Diag.t -> Cacti_util.Jsonx.t
val diag_of_json : Cacti_util.Jsonx.t -> (Cacti_util.Diag.t, string) result
val summary_to_json : Cacti_util.Diag.summary -> Cacti_util.Jsonx.t
val cache_solution : Cacti.Cache_model.t -> Cacti_util.Jsonx.t
val ram_solution : Cacti.Ram_model.t -> Cacti_util.Jsonx.t
val mainmem_solution : Cacti.Mainmem.t -> Cacti_util.Jsonx.t

val nm_of_tech : Cacti_tech.Technology.t -> float
(** Feature size in nm, rounded to 1e-6 nm so the float survives a
    print→parse→[Technology.at_nm] cycle bit-exactly. *)
