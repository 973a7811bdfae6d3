open Cacti_util

(* Latency histogram: bucket i counts requests with wall time in
   [2^i, 2^(i+1)) microseconds; 28 buckets span 1 us .. ~2.2 min. *)
let n_buckets = 28

(* Completion-timestamp ring for the observed service rate (drives
   retry_after_ms); 128 samples is ~a second of warm traffic and months
   of idle — the window below also bounds it in time. *)
let comp_ring = 128

(* Only completions this recent count toward the service rate: an idle
   gap must not dilute the rate the next burst's refusals hint with. *)
let rate_window_s = 10.

type counters = {
  mutable c_lines : int;
      (** every non-empty input line, counted once at entry (transport
          invariant: [c_lines] = sum of the outcome counters) *)
  mutable c_cache : int;
  mutable c_ram : int;
  mutable c_mainmem : int;
  mutable c_stats : int;
  mutable c_malformed : int;  (** lines that never decoded to a request *)
  mutable c_worker_faults : int;
      (** exceptions that escaped a queue worker's job (also counted under
          [o_internal_error]) *)
  mutable o_ok : int;
  mutable o_invalid : int;  (** bad request / bad spec / bad params *)
  mutable o_no_solution : int;
  mutable o_internal_error : int;  (** contained exception *)
  mutable o_overloaded : int;
  mutable o_deadline_exceeded : int;  (** shed in queue or cancelled mid-solve *)
  mutable o_draining : int;  (** refused or cancelled by a drain *)
  mutable lat_sum_ms : float;
  mutable lat_count : int;
  lat_buckets : int array;
  completions : float array;  (** ring of completion wall-clock stamps *)
  mutable comp_next : int;
  mutable comp_count : int;
}

(* One admitted request, parsed exactly once at the transport edge. *)
type job = {
  j_json : Jsonx.t;
  j_id : Jsonx.t;
  j_key : string;  (** response-cache key *)
  j_reply : string -> unit;
  j_admitted : float;
  j_deadline : float;  (** absolute; [infinity] when no deadline *)
}

(* A memoized wire answer: everything needed to rebuild the response
   without decoding the request or touching the solver.  [re_cache_hits]
   is the array-lookup count a fully warm solve of this kind reports, so
   a response-cache hit is indistinguishable from a bank-memo hit on the
   wire. *)
type resp_entry = {
  re_solution : Jsonx.t;
  re_rendered : string;
      (** [re_solution] rendered once at store time, so fast-path hits
          splice it into the wire line instead of re-walking a
          multi-kilobyte tree per request *)
  re_cache_hits : int;
  re_kind : [ `Cache | `Ram | `Mainmem ];
}

type t = {
  jobs : int option;
  queue_bound : int;
  queue : job Queue.t;
  qlock : Mutex.t;  (** guards [queue] *)
  qcond : Condition.t;  (** signalled on push and on {!stop_workers} *)
  resp : (string, resp_entry) Lru.t option;  (** [None]: fast path off *)
  mutable stopping : bool;  (** workers exit once the queue drains *)
  mutable is_draining : bool;  (** new admissions refused *)
  in_flight : int Atomic.t;  (** jobs dequeued, response not yet written *)
  drain : Cancel.t;  (** parent token of every solve; fired to cancel *)
  log : Diag.t -> unit;
  clock : Mutex.t;  (** guards [counters] *)
  counters : counters;
  started_at : float;
  mutable aux_stats : (string * (unit -> Jsonx.t)) list;
      (** extra stats sections (e.g. the pre-solver), guarded by [clock] *)
}

let create ?jobs ?(queue_bound = 64) ?(resp_cache = 4096)
    ?(log = fun d -> prerr_endline (Diag.to_string d)) () =
  if queue_bound < 1 then
    invalid_arg "Service.create: queue_bound must be positive";
  if resp_cache < 0 then
    invalid_arg "Service.create: resp_cache must be non-negative";
  {
    jobs;
    queue_bound;
    queue = Queue.create ();
    qlock = Mutex.create ();
    qcond = Condition.create ();
    resp =
      (if resp_cache = 0 then None
       else begin
         let lru = Lru.create () in
         Lru.set_capacity lru ~what:"Service.resp_cache" (Some resp_cache);
         Some lru
       end);
    stopping = false;
    is_draining = false;
    in_flight = Atomic.make 0;
    drain = Cancel.create ~reason:"drain" ();
    log;
    clock = Mutex.create ();
    counters =
      {
        c_lines = 0;
        c_cache = 0;
        c_ram = 0;
        c_mainmem = 0;
        c_stats = 0;
        c_malformed = 0;
        c_worker_faults = 0;
        o_ok = 0;
        o_invalid = 0;
        o_no_solution = 0;
        o_internal_error = 0;
        o_overloaded = 0;
        o_deadline_exceeded = 0;
        o_draining = 0;
        lat_sum_ms = 0.;
        lat_count = 0;
        lat_buckets = Array.make n_buckets 0;
        completions = Array.make comp_ring 0.;
        comp_next = 0;
        comp_count = 0;
      };
    started_at = Unix.gettimeofday ();
    aux_stats = [];
  }

let shard_cache _ _ = ()
let drain_token t = t.drain

let register_stats t name fn =
  Mutex.protect t.clock (fun () ->
      t.aux_stats <- t.aux_stats @ [ (name, fn) ])

(* --------------------------- response key ---------------------------- *)

(* The response-cache key of a request: the canonical (sorted-key) JSON of
   everything that determines its solution — kind, spec, and params minus
   the per-call knobs ([deadline_ms], [jobs]) that cannot change the
   selected organization.  Computed from the raw parsed JSON so the fast
   path never decodes a request; two spellings of the same spec that
   differ in defaulted fields get separate entries (they deduplicate at
   the Solve_cache fingerprint). *)
let response_key j =
  let kind =
    Option.value
      (Option.bind (Jsonx.member "kind" j) Jsonx.get_string)
      ~default:""
  in
  let spec = Option.value (Jsonx.member "spec" j) ~default:(Jsonx.Obj []) in
  let params =
    match Jsonx.member "params" j with
    | Some (Jsonx.Obj kvs) ->
        Jsonx.Obj
          (List.filter
             (fun (k, _) -> k <> "deadline_ms" && k <> "jobs")
             kvs)
    | Some v -> v
    | None -> Jsonx.Obj []
  in
  Jsonx.to_canonical_string
    (Jsonx.Obj
       [ ("kind", Jsonx.String kind); ("params", params); ("spec", spec) ])

(* --------------------------- accounting ----------------------------- *)

let count_line t =
  Mutex.protect t.clock (fun () ->
      t.counters.c_lines <- t.counters.c_lines + 1)

let count_kind t kind =
  Mutex.protect t.clock (fun () ->
      let c = t.counters in
      match kind with
      | `Cache -> c.c_cache <- c.c_cache + 1
      | `Ram -> c.c_ram <- c.c_ram + 1
      | `Mainmem -> c.c_mainmem <- c.c_mainmem + 1
      | `Stats -> c.c_stats <- c.c_stats + 1
      | `Malformed -> c.c_malformed <- c.c_malformed + 1)

let count_outcome t outcome =
  Mutex.protect t.clock (fun () ->
      let c = t.counters in
      match outcome with
      | `Ok -> c.o_ok <- c.o_ok + 1
      | `Invalid -> c.o_invalid <- c.o_invalid + 1
      | `No_solution -> c.o_no_solution <- c.o_no_solution + 1
      | `Internal_error -> c.o_internal_error <- c.o_internal_error + 1
      | `Overloaded -> c.o_overloaded <- c.o_overloaded + 1
      | `Deadline_exceeded ->
          c.o_deadline_exceeded <- c.o_deadline_exceeded + 1
      | `Draining -> c.o_draining <- c.o_draining + 1)

let count_worker_fault t =
  Mutex.protect t.clock (fun () ->
      t.counters.c_worker_faults <- t.counters.c_worker_faults + 1)

let bucket_of_ms ms =
  let us = ms *. 1e3 in
  if us < 1. then 0
  else Int.min (n_buckets - 1) (int_of_float (Float.log2 us))

let record_latency t ms =
  Mutex.protect t.clock (fun () ->
      let c = t.counters in
      c.lat_sum_ms <- c.lat_sum_ms +. ms;
      c.lat_count <- c.lat_count + 1;
      let b = bucket_of_ms ms in
      c.lat_buckets.(b) <- c.lat_buckets.(b) + 1;
      (* The same event is a completion for the service-rate estimate. *)
      c.completions.(c.comp_next) <- Unix.gettimeofday ();
      c.comp_next <- (c.comp_next + 1) mod comp_ring;
      c.comp_count <- c.comp_count + 1)

(* Percentile estimate from the histogram: the geometric middle of the
   bucket where the cumulative count crosses the quantile.  Good to a
   factor of sqrt(2) — plenty for a live dashboard; the benchmark computes
   exact percentiles from raw samples. *)
let percentile_ms buckets total q =
  if total = 0 then 0.
  else begin
    let target = Float.of_int total *. q in
    let cum = ref 0 and found = ref (n_buckets - 1) and looking = ref true in
    Array.iteri
      (fun i n ->
        if !looking then begin
          cum := !cum + n;
          if Float.of_int !cum >= target then begin
            found := i;
            looking := false
          end
        end)
      buckets;
    (* bucket i spans [2^i, 2^(i+1)) us; geometric mid = 2^(i+0.5) us *)
    Float.pow 2. (Float.of_int !found +. 0.5) /. 1e3
  end

let queue_depth t = Mutex.protect t.qlock (fun () -> Queue.length t.queue)

let in_flight t = Atomic.get t.in_flight
let draining t = t.is_draining

let idle t = queue_depth t = 0 && Atomic.get t.in_flight = 0

(* Completions per second over the recent window, from the timestamp
   ring.  [None] until two completions land inside the window. *)
let service_rate t =
  let now = Unix.gettimeofday () in
  Mutex.protect t.clock (fun () ->
      let c = t.counters in
      let n = Int.min c.comp_count comp_ring in
      let cutoff = now -. rate_window_s in
      (* Walk newest to oldest; stop at the window edge. *)
      let in_window = ref 0 and oldest = ref now in
      (try
         for k = 1 to n do
           let stamp = c.completions.((c.comp_next - k + (2 * comp_ring)) mod comp_ring) in
           if stamp < cutoff then raise Exit;
           incr in_window;
           oldest := stamp
         done
       with Exit -> ());
      if !in_window < 2 then None
      else
        let span = Float.max (now -. !oldest) 1e-3 in
        Some (Float.of_int !in_window /. span))

(* When should a refused client retry?  Long enough for the work queued
   ahead of it to clear at the observed recent service rate; before any
   completion lands, fall back to the mean-latency heuristic (and before
   any latency is recorded, to a flat 50 ms). *)
let retry_after_ms t depth =
  match service_rate t with
  | Some rate -> Float.max 1. (Float.of_int (depth + 1) /. rate *. 1e3)
  | None ->
      let mean =
        Mutex.protect t.clock (fun () ->
            let c = t.counters in
            if c.lat_count = 0 then 50.
            else c.lat_sum_ms /. Float.of_int c.lat_count)
      in
      Float.max 1. (mean *. Float.of_int (depth + 1))

(* ------------------------------ stats -------------------------------- *)

let lru_section (s : Lru.stats) size cap =
  let lookups = s.Lru.hits + s.Lru.misses in
  let hit_rate =
    if lookups = 0 then 0.
    else Float.of_int s.Lru.hits /. Float.of_int lookups
  in
  Jsonx.Obj
    [
      ("hits", Jsonx.Int s.Lru.hits);
      ("misses", Jsonx.Int s.Lru.misses);
      ("size", Jsonx.Int size);
      ("capacity", match cap with None -> Jsonx.Null | Some n -> Jsonx.Int n);
      ("hit_rate", Jsonx.num hit_rate);
    ]

let stats_json t =
  let module SC = Cacti.Solve_cache in
  let inc = SC.incremental_stats () in
  let solve_section =
    let s = SC.stats () in
    lru_section
      { Lru.hits = s.SC.hits; misses = s.SC.misses }
      (SC.size ()) (SC.capacity ())
  in
  let resp_section =
    match t.resp with
    | None -> lru_section Lru.{ hits = 0; misses = 0 } 0 None
    | Some lru -> lru_section (Lru.stats lru) (Lru.size lru) (Lru.capacity lru)
  in
  (* Per-phase wall clock since startup; populated when phase accounting
     is on (the server binary enables it at launch). *)
  let phases = Cacti_util.Profile.summary () in
  let depth = queue_depth t in
  let inflight = Atomic.get t.in_flight in
  let rate = service_rate t in
  let c = t.counters in
  let aux = Mutex.protect t.clock (fun () -> t.aux_stats) in
  let aux_sections = List.map (fun (name, fn) -> (name, fn ())) aux in
  Mutex.protect t.clock (fun () ->
      Jsonx.Obj
        ([
           ( "requests",
             Jsonx.Obj
               [
                 ("lines", Jsonx.Int c.c_lines);
                 ("cache", Jsonx.Int c.c_cache);
                 ("ram", Jsonx.Int c.c_ram);
                 ("mainmem", Jsonx.Int c.c_mainmem);
                 ("stats", Jsonx.Int c.c_stats);
                 ("malformed", Jsonx.Int c.c_malformed);
               ] );
           ( "outcomes",
             Jsonx.Obj
               [
                 ("ok", Jsonx.Int c.o_ok);
                 ("invalid", Jsonx.Int c.o_invalid);
                 ("no_solution", Jsonx.Int c.o_no_solution);
                 ("internal_error", Jsonx.Int c.o_internal_error);
                 ("overloaded", Jsonx.Int c.o_overloaded);
                 ("deadline_exceeded", Jsonx.Int c.o_deadline_exceeded);
                 ("draining", Jsonx.Int c.o_draining);
               ] );
           ( "faults",
             Jsonx.Obj [ ("worker", Jsonx.Int c.c_worker_faults) ] );
           ("solve_cache", solve_section);
           ("response_cache", resp_section);
           ( "incremental",
             Jsonx.Obj
               [
                 ("full_hits", Jsonx.Int inc.SC.full_hits);
                 ("rows_hits", Jsonx.Int inc.SC.rows_hits);
                 ("misses", Jsonx.Int inc.SC.misses);
               ] );
           ( "phases",
             Jsonx.Obj
               (List.map
                  (fun (phase, secs, calls) ->
                    ( phase,
                      Jsonx.Obj
                        [
                          ("total_ms", Jsonx.num (1e3 *. secs));
                          ("calls", Jsonx.Int calls);
                        ] ))
                  phases) );
           ( "queue",
             Jsonx.Obj
               [
                 ("depth", Jsonx.Int depth);
                 ("bound", Jsonx.Int t.queue_bound);
                 ("in_flight", Jsonx.Int inflight);
                 ("draining", Jsonx.Bool t.is_draining);
                 ( "service_rate_rps",
                   match rate with None -> Jsonx.Null | Some r -> Jsonx.num r
                 );
               ] );
           ( "latency_ms",
             Jsonx.Obj
               [
                 ("count", Jsonx.Int c.lat_count);
                 ( "mean",
                   Jsonx.num
                     (if c.lat_count = 0 then 0.
                      else c.lat_sum_ms /. Float.of_int c.lat_count) );
                 ( "p50",
                   Jsonx.num (percentile_ms c.lat_buckets c.lat_count 0.50) );
                 ( "p90",
                   Jsonx.num (percentile_ms c.lat_buckets c.lat_count 0.90) );
                 ( "p99",
                   Jsonx.num (percentile_ms c.lat_buckets c.lat_count 0.99) );
                 ( "histogram_us_log2",
                   Jsonx.List
                     (Array.to_list
                        (Array.map (fun n -> Jsonx.Int n) c.lat_buckets)) );
               ] );
           ("uptime_s", Jsonx.num (Unix.gettimeofday () -. t.started_at));
         ]
        @ aux_sections))

(* ----------------------------- solving ------------------------------ *)

let solve_spec t ~cancel (params : Protocol.params) spec =
  let jobs = match params.Protocol.jobs with Some j -> Some j | None -> t.jobs in
  let p = params.Protocol.opt and strict = params.Protocol.strict in
  match spec with
  | Protocol.Cache s ->
      Cacti.Cache_model.solve_diag ?jobs ~cancel ~params:p ~strict s
      |> Result.map (fun (c, sum) -> (Protocol.cache_solution c, sum))
  | Protocol.Ram s ->
      Cacti.Ram_model.solve_diag ?jobs ~cancel ~params:p ~strict s
      |> Result.map (fun (r, sum) -> (Protocol.ram_solution r, sum))
  | Protocol.Mainmem chip ->
      Cacti.Mainmem.solve_diag ?jobs ~cancel ~params:p ~strict chip
      |> Result.map (fun (m, sum) -> (Protocol.mainmem_solution m, sum))

let classify_error ds =
  if List.exists (fun d -> d.Diag.reason = "no_solution") ds then `No_solution
  else `Invalid

let respond ~id ~t0 ?(cache_hits = 0) ?retry_after body =
  let wall_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
  let ok, solution, diags =
    match body with
    | Ok solution -> (true, Some solution, [])
    | Error ds -> (false, None, ds)
  in
  ( wall_ms,
    Protocol.response_to_json
      {
        Protocol.r_id = id;
        r_ok = ok;
        r_solution = solution;
        r_diagnostics = diags;
        r_wall_ms = wall_ms;
        r_cache_hits = cache_hits;
        r_retry_after_ms = retry_after;
      } )

let kind_tag = function
  | Protocol.Cache _ -> `Cache
  | Protocol.Ram _ -> `Ram
  | Protocol.Mainmem _ -> `Mainmem

(* The array-lookup count a fully warm solve of this kind reports: a
   cache solves its data and tag arrays, the others one array.  Stored
   with the response-cache entry so a fast-path hit reports the same
   [timing.cache_hits] a bank-memo hit would. *)
let warm_hits_of_kind = function `Cache -> 2 | `Ram -> 1 | `Mainmem -> 1

let store_response t key ~kind solution =
  match t.resp with
  | None -> ()
  | Some resp ->
      ignore
        (Lru.publish resp key
           {
             re_solution = solution;
             re_rendered = Jsonx.to_string solution;
             re_cache_hits = warm_hits_of_kind kind;
             re_kind = kind;
           })

(* Raw-JSON deadline extraction (also used at admission): the
   ["params"]["deadline_ms"] number without the full request decode.  An
   invalid value admits with no deadline and is then rejected by the
   decode's validation. *)
let deadline_of_json j =
  match
    Option.bind (Jsonx.member "params" j) (fun p ->
        Option.bind (Jsonx.member "deadline_ms" p) Jsonx.get_float)
  with
  | Some d when Float.is_finite d && d > 0. -> Some d
  | _ -> None

(* Response-cache fast path: answer a previously solved request from its
   memoized wire answer, skipping the decode, the validation and the
   solver entirely.  The slow path's failure semantics are mirrored so
   the fast path is observationally identical under chaos and deadlines:
   the [service.slow_solve] injection point still fires (a delay can
   still push the request past its deadline, an injected exception is
   still contained), a fired drain token still answers
   [serve/draining]. *)
let fast_eligible j =
  match Option.bind (Jsonx.member "kind" j) Jsonx.get_string with
  | Some ("cache" | "ram" | "mainmem") -> true
  | _ -> false

(* The failure mirroring both fast-path renderers share. *)
let fast_result t ~admitted j e =
  try
    Chaos.fire "service.slow_solve";
    if Cancel.cancelled t.drain then
      Error
        ( `Draining,
          [
            Diag.error ~component:"serve" ~reason:"draining"
              "server draining: in-flight solve cancelled";
          ] )
    else
      match deadline_of_json j with
      | Some d when Unix.gettimeofday () > admitted +. (d /. 1e3) ->
          Error
            ( `Deadline_exceeded,
              [
                Diag.errorf ~component:"serve" ~reason:"deadline_exceeded"
                  "deadline of %g ms exceeded mid-solve (%.1f ms since \
                   admission)"
                  d
                  ((Unix.gettimeofday () -. admitted) *. 1e3);
              ] )
      | _ -> Ok e
  with exn ->
    Error
      ( `Internal_error,
        [
          Diag.errorf ~component:"serve" ~reason:"internal_error"
            "uncontained exception answering memoized request: %s"
            (Printexc.to_string exn);
        ] )

(* [counted:false] is the admission-time probe: a miss there is followed
   by the worker's counted lookup for the same request, so only hits may
   touch the hit/miss counters (the uncounted [mem]-then-[find] race is
   benign — an eviction in the window just counts one extra miss). *)
let fast_lookup ~counted t j key =
  match t.resp with
  | None -> None
  | Some _ when not (fast_eligible j) -> None
  | Some resp ->
      if counted then Lru.find resp key
      else if Lru.mem resp key then Lru.find resp key
      else None

let try_fast_path t ~key ~admitted j t0 =
  match fast_lookup ~counted:true t j key with
  | None -> None
  | Some e ->
      count_kind t e.re_kind;
      let id = Protocol.request_id j in
      Some
        (match fast_result t ~admitted j e with
        | Ok e ->
            count_outcome t `Ok;
            respond ~id ~t0 ~cache_hits:e.re_cache_hits (Ok e.re_solution)
        | Error (outcome, ds) ->
            count_outcome t outcome;
            respond ~id ~t0 (Error ds))

(* Admission-time warm answer, already rendered: the wire line is
   composed by splicing the solution text stored with the entry — field
   order and number formatting match [Protocol.response_to_json] +
   [Jsonx.to_string] byte-for-byte, so the spliced line is exactly what
   the tree path would print (wall_ms aside, which is genuinely
   per-request). *)
let try_fast_line t ~key ~admitted j t0 =
  match fast_lookup ~counted:false t j key with
  | None -> None
  | Some e -> (
      count_kind t e.re_kind;
      let id = Protocol.request_id j in
      match fast_result t ~admitted j e with
      | Ok e ->
          count_outcome t `Ok;
          let wall_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
          record_latency t wall_ms;
          Some
            (Printf.sprintf
               {|{"id":%s,"ok":true,"solution":%s,"timing":{"wall_ms":%s,"cache_hits":%d}}|}
               (Jsonx.to_string id) e.re_rendered
               (Jsonx.to_string (Jsonx.num wall_ms))
               e.re_cache_hits)
      | Error (outcome, ds) ->
          count_outcome t outcome;
          let wall_ms, response = respond ~id ~t0 (Error ds) in
          record_latency t wall_ms;
          Some (Jsonx.to_string response))

let handle_keyed ?admitted_at t ~key j =
  let t0 = Unix.gettimeofday () in
  let admitted = Option.value admitted_at ~default:t0 in
  let wall_ms, response =
    match try_fast_path t ~key ~admitted j t0 with
    | Some r -> r
    | None -> (
        match Protocol.parse_request j with
        | Error ds ->
            (* Envelope kinds stay meaningful even for undecodable requests:
               only lines with no recognizable kind count as malformed. *)
            (match Option.bind (Jsonx.member "kind" j) Jsonx.get_string with
            | Some "cache" -> count_kind t `Cache
            | Some "ram" -> count_kind t `Ram
            | Some "mainmem" -> count_kind t `Mainmem
            | Some "stats" -> count_kind t `Stats
            | Some _ | None -> count_kind t `Malformed);
            count_outcome t `Invalid;
            respond ~id:(Protocol.request_id j) ~t0 (Error ds)
        | Ok (Protocol.Stats { id }) ->
            count_kind t `Stats;
            count_outcome t `Ok;
            respond ~id ~t0 (Ok (stats_json t))
        | Ok (Protocol.Solve { id; spec; params } as req) ->
            count_kind t (kind_tag spec);
            (* Per-request cancellation: the deadline token (absolute, from
               admission time so queueing counts against the budget) chains
               to the service's drain token; a no-deadline request still
               cancels on drain. *)
            let cancel =
              match params.Protocol.deadline_ms with
              | Some d ->
                  Cancel.create ~reason:"deadline"
                    ~deadline_at:(admitted +. (d /. 1e3))
                    ~parent:t.drain ()
              | None -> t.drain
            in
            (* Per-request fault containment: whatever escapes the model —
               including in strict mode, where the sweep re-raises on
               purpose — is this request's problem, never the server's.
               Cancellation is not a fault: it maps to its own typed
               outcome. *)
            let result =
              try
                Chaos.fire "service.slow_solve";
                solve_spec t ~cancel params spec
                |> Result.map_error (fun ds -> (classify_error ds, ds))
              with
              | Cancel.Cancelled "drain" ->
                  Error
                    ( `Draining,
                      [
                        Diag.error ~component:"serve" ~reason:"draining"
                          "server draining: in-flight solve cancelled";
                      ] )
              | Cancel.Cancelled _ ->
                  Error
                    ( `Deadline_exceeded,
                      [
                        Diag.errorf ~component:"serve"
                          ~reason:"deadline_exceeded"
                          "deadline of %g ms exceeded mid-solve (%.1f ms \
                           since admission)"
                          (Option.value params.Protocol.deadline_ms
                             ~default:0.)
                          ((Unix.gettimeofday () -. admitted) *. 1e3);
                      ] )
              | exn ->
                  Error
                    ( `Internal_error,
                      [
                        Diag.errorf ~component:"serve"
                          ~reason:"internal_error"
                          "uncontained exception answering %s request: %s"
                          (Protocol.kind_of_request req)
                          (Printexc.to_string exn);
                      ] )
            in
            (match result with
            | Ok (solution, summary) ->
                count_outcome t `Ok;
                store_response t key ~kind:(kind_tag spec) solution;
                respond ~id ~t0 ~cache_hits:summary.Diag.cache_hits
                  (Ok solution)
            | Error (outcome, ds) ->
                count_outcome t outcome;
                respond ~id ~t0 (Error ds)))
  in
  record_latency t wall_ms;
  response

let handle_json ?admitted_at t j =
  handle_keyed ?admitted_at t ~key:(response_key j) j

(* The batch transport's warm path is the admission one: a
   response-cache hit is answered by splicing the stored rendering, and a
   miss (probed uncounted, like [admit]) goes to [handle_keyed]. *)
let handle_line t line =
  count_line t;
  match Jsonx.parse line with
  | Ok j -> (
      let key = response_key j in
      let now = Unix.gettimeofday () in
      match try_fast_line t ~key ~admitted:now j now with
      | Some response -> response
      | None -> Jsonx.to_string (handle_keyed ~admitted_at:now t ~key j))
  | Error msg ->
      let t0 = Unix.gettimeofday () in
      count_kind t `Malformed;
      count_outcome t `Invalid;
      let _, response =
        respond ~id:Jsonx.Null ~t0
          (Error [ Diag.error ~component:"protocol" ~reason:"parse_error" msg ])
      in
      Jsonx.to_string response

(* --------------------------- pre-solving ----------------------------- *)

(* Solve one grid point exactly as an admitted request would be solved —
   same memo tables, same response-cache key — but outside the request
   counters: pre-solve traffic is not client traffic and must not disturb
   the [lines = outcomes] partition or the latency histogram.  Failures
   are contained and reported; [Cancel.Cancelled] propagates so a drain
   aborts the walk. *)
let presolve_point ?cancel t j =
  let key = response_key j in
  let already_warm =
    match t.resp with Some resp -> Lru.mem resp key | None -> false
  in
  if already_warm then `Warm
  else
    match Protocol.parse_request j with
    | Ok (Protocol.Solve { spec; params; _ }) -> (
        let cancel = Option.value cancel ~default:t.drain in
        match solve_spec t ~cancel params spec with
        | Ok (solution, _summary) ->
            store_response t key ~kind:(kind_tag spec) solution;
            `Solved
        | Error ds -> `Failed (Diag.render ds)
        | exception (Cancel.Cancelled _ as e) -> raise e
        | exception exn -> `Failed (Printexc.to_string exn))
    | Ok (Protocol.Stats _) -> `Failed "stats request in pre-solve grid"
    | Error ds -> `Failed (Diag.render ds)

(* -------------------------- admission queue ------------------------- *)

let refusal ~id ~reason ?retry_after msg =
  Jsonx.to_string
    (Protocol.response_to_json
       {
         Protocol.r_id = id;
         r_ok = false;
         r_solution = None;
         r_diagnostics = [ Diag.error ~component:"serve" ~reason msg ];
         r_wall_ms = 0.;
         r_cache_hits = 0;
         r_retry_after_ms = retry_after;
       })

let admit t ~reply line =
  count_line t;
  match Jsonx.parse line with
  | Error msg ->
      count_kind t `Malformed;
      count_outcome t `Invalid;
      let _, response =
        respond ~id:Jsonx.Null ~t0:(Unix.gettimeofday ())
          (Error [ Diag.error ~component:"protocol" ~reason:"parse_error" msg ])
      in
      reply (Jsonx.to_string response)
  | Ok j -> (
      let id = Protocol.request_id j in
      if t.is_draining then begin
        count_outcome t `Draining;
        reply
          (refusal ~id ~reason:"draining"
             "server draining: not accepting new requests")
      end
      else
        let key = response_key j in
        let now = Unix.gettimeofday () in
        (* Warm fast path at admission: a response-cache hit is answered
           in-line on the transport thread, skipping the queue and the
           worker handoff entirely — warm requests neither occupy queue
           slots nor pay two context switches.  Misses fall through to
           the queue (and the worker re-probes, counted, in case a
           duplicate in front of it warmed the entry meanwhile). *)
        match try_fast_line t ~key ~admitted:now j now with
        | Some line -> reply line
        | None ->
        let deadline =
          match deadline_of_json j with
          | Some d -> now +. (d /. 1e3)
          | None -> Float.infinity
        in
        let job =
          {
            j_json = j;
            j_id = id;
            j_key = key;
            j_reply = reply;
            j_admitted = now;
            j_deadline = deadline;
          }
        in
        let admitted =
          Mutex.protect t.qlock (fun () ->
              if
                t.stopping || t.is_draining
                || Queue.length t.queue >= t.queue_bound
              then false
              else begin
                Queue.push job t.queue;
                Condition.signal t.qcond;
                true
              end)
        in
        if not admitted then
          if t.is_draining || t.stopping then begin
            count_outcome t `Draining;
            reply
              (refusal ~id ~reason:"draining"
                 "server draining: not accepting new requests")
          end
          else begin
            count_outcome t `Overloaded;
            let depth = queue_depth t in
            reply
              (refusal ~id ~reason:"queue_full"
                 ~retry_after:(retry_after_ms t depth)
                 (Printf.sprintf
                    "admission queue full (%d of %d pending): retry later"
                    depth t.queue_bound))
          end)

let run_worker t =
  let rec loop () =
    let job =
      Mutex.protect t.qlock (fun () ->
          let rec wait () =
            if not (Queue.is_empty t.queue) then begin
              let j = Queue.pop t.queue in
              (* Claim the job inside the queue lock so a drain's idle
                 check can never observe "queue empty, nothing in
                 flight" between our pop and the increment. *)
              Atomic.incr t.in_flight;
              Some j
            end
            else if t.stopping then None
            else begin
              Condition.wait t.qcond t.qlock;
              wait ()
            end
          in
          wait ())
    in
    match job with
    | None -> ()
    | Some job ->
        let now = Unix.gettimeofday () in
        (if now > job.j_deadline then begin
           (* Shed without solving: the deadline expired while queued. *)
           count_outcome t `Deadline_exceeded;
           let waited_ms = (now -. job.j_admitted) *. 1e3 in
           try
             job.j_reply
               (refusal ~id:job.j_id ~reason:"deadline_exceeded"
                  ~retry_after:(retry_after_ms t (queue_depth t))
                  (Printf.sprintf
                     "deadline exceeded after %.1f ms in queue (never solved)"
                     waited_ms))
           with _ -> ()
         end
         else
           (* [handle_json] is total, so anything escaping here is a
              transport-or-injected fault around it: count it, surface a
              warning, and answer the client best-effort.  The outcome
              was not yet counted (handle_json counts on its way out), so
              this branch owns the line's outcome. *)
           match
             Chaos.fire "service.worker";
             Jsonx.to_string
               (handle_keyed ~admitted_at:job.j_admitted t ~key:job.j_key
                  job.j_json)
           with
           | response -> ( try job.j_reply response with _ -> ())
           | exception exn ->
               count_worker_fault t;
               count_outcome t `Internal_error;
               t.log
                 (Diag.warningf ~component:"serve" ~reason:"worker_fault"
                    "exception escaped a queue worker: %s"
                    (Printexc.to_string exn));
               (try
                  job.j_reply
                    (refusal ~id:job.j_id ~reason:"internal_error"
                       (Printf.sprintf "worker fault: %s"
                          (Printexc.to_string exn)))
                with _ -> ()));
        Atomic.decr t.in_flight;
        loop ()
  in
  loop ()

(* ------------------------------ drain ------------------------------- *)

let begin_drain t = t.is_draining <- true

let cancel_inflight t = Cancel.cancel t.drain

let stop_workers t =
  t.is_draining <- true;
  Mutex.protect t.qlock (fun () ->
      t.stopping <- true;
      Condition.broadcast t.qcond)
