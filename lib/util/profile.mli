(** Opt-in wall-clock phase accounting.

    A process-wide registry of named time accumulators.  Profiling is off by
    default and {!time} then costs a single atomic load; when enabled (the
    [cacti_cli --profile] flag) each timed region adds its elapsed wall time
    and a call count to its phase under a mutex, so regions may be entered
    concurrently from several domains. *)

val set_enabled : bool -> unit

val reset : unit -> unit
(** Drop all accumulated phases (does not change the enabled flag). *)

val time : string -> (unit -> 'a) -> 'a
(** [time phase f] runs [f ()]; when profiling is enabled its wall time is
    added to [phase] (also on exception). *)

val summary : unit -> (string * float * int) list
(** [(phase, total_seconds, calls)] rows, largest total first. *)
