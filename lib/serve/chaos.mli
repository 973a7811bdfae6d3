(** Fault injection for the serving stack.

    A process-wide registry of named injection points.  Production code in
    {!Service}, {!Server} and {!Persist} calls {!fire} (or {!mangle}) at a
    handful of points; with nothing armed the cost is one atomic load.
    The chaos soak harness ([chaos_bench]) arms points with seeded
    probabilities and asserts the server's invariants — no crash, exactly
    one response per request, counters that partition — while faults land.

    Standard points wired into the stack:
    - ["service.worker"] — inside a queue worker, before it runs a job
      (an armed [Exn] exercises the worker-fault containment);
    - ["service.slow_solve"] — before a solve starts (arm [Delay] to
      push requests past their deadlines);
    - ["server.write"] — inside the per-connection reply path (arm
      [Epipe] to simulate a peer that died mid-response);
    - ["server.read"] — each incoming line passes through
      {!mangle} at this point (arm [Mangle] for torn JSONL lines);
    - ["persist.save"], ["persist.load"] — inside cache snapshot I/O
      (arm [Io_error] to simulate disk faults).

    The registry is test/bench-only: nothing in the production binaries
    arms it, and {!fire} with an empty table is branch-predictable
    no-op. *)

exception Injected of string
(** Raised at a point armed with {!Exn}; carries the point name. *)

type fault =
  | Exn  (** raise {!Injected} at the point *)
  | Delay of float  (** sleep that many seconds, then continue *)
  | Io_error  (** raise [Sys_error], as a failing I/O call would *)
  | Epipe  (** raise [Unix.Unix_error (EPIPE, _, _)], as a dead peer would *)
  | Mangle  (** corrupt the string passing through {!mangle} *)

val seed : int -> unit
(** Reseed the registry's deterministic RNG ({!Cacti_util.Rng}); equal
    seeds give equal fault schedules for equal call sequences. *)

val arm : string -> ?prob:float -> fault -> unit
(** [arm point ~prob fault] injects [fault] at [point] with probability
    [prob] (default 1.0) per {!fire} call.  Re-arming replaces the
    previous fault and resets its counter. *)

val reset : unit -> unit
(** Disarm every point (does not reseed). *)

val fire : string -> unit
(** Called by production code at an injection point: no-op unless the
    point is armed and the probability draw hits, in which case the armed
    fault executes ([Mangle] is a no-op here — it only acts in
    {!mangle}). *)

val mangle : string -> string -> string
(** [mangle point line] is [line], or a corrupted (torn, spliced with
    garbage bytes, never containing a newline) variant when [point] is
    armed with {!Mangle} and the draw hits. *)

val points : unit -> (string * int) list
(** Armed points with their fired counts, sorted. *)
