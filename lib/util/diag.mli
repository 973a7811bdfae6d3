(** Structured diagnostics for the solver pipeline.

    Every refusal the tool can make — an inconsistent spec, a candidate
    organization rejected mid-sweep, a solve with no surviving solution, a
    relaxation that did not converge — is expressed as a value of {!t}:
    a severity, the component that produced it, a machine-readable reason
    tag (stable, snake_case, suitable for grepping or counting) and a
    human-readable message.  The CLIs render these instead of backtraces
    and map them to documented exit codes.

    The sweep-accounting types ({!counts}, {!summary}) record what happened
    to every candidate of a design-space enumeration, so "the solver picked
    bank X" always comes with "out of N candidates, rejected for these
    reasons". *)

type severity = Info | Warning | Error

type t = {
  severity : severity;
  component : string;  (** producing subsystem, e.g. ["cache_spec"], ["bank"] *)
  reason : string;  (** machine tag, e.g. ["non_pow2_block"], ["no_solution"] *)
  message : string;  (** human-readable, single line *)
}

val make : severity -> component:string -> reason:string -> string -> t
val info : component:string -> reason:string -> string -> t
val warning : component:string -> reason:string -> string -> t
val error : component:string -> reason:string -> string -> t

val errorf :
  component:string ->
  reason:string ->
  ('a, unit, string, t) format4 ->
  'a
(** [errorf ~component ~reason fmt ...] builds an [Error] diagnostic with a
    printf-formatted message. *)

val warningf :
  component:string ->
  reason:string ->
  ('a, unit, string, t) format4 ->
  'a

val severity_to_string : severity -> string

val to_string : t -> string
(** One line: ["error[cache_spec/non_pow2_block]: block size ..."]. *)

val render : t list -> string
(** Newline-joined {!to_string} of each diagnostic. *)

(** {1 Design-space sweep accounting}

    One {!counts} per {!Cacti_array.Bank.enumerate}-style sweep.  The
    invariant [candidates = evaluated + geometry_rejected + page_rejected +
    area_pruned + bound_pruned + nonviable + nonfinite + raised] always
    holds. *)

type counts = {
  candidates : int;  (** organizations considered by the enumeration *)
  evaluated : int;  (** fully modeled with all-finite metrics *)
  geometry_rejected : int;
      (** failed the integer-tiling / subarray-bound / mux-chain screen *)
  page_rejected : int;  (** failed the main-memory page constraint *)
  area_pruned : int;  (** skipped by the area lower-bound prune *)
  bound_pruned : int;
      (** skipped by the multi-metric branch-and-bound prune: provably
          unable to displace the current best solution on area, access
          time or (when only dynamic energy is weighted) read energy *)
  nonviable : int;  (** electrically non-viable (e.g. DRAM signal too small) *)
  nonfinite : int;
      (** produced a NaN/infinite/negative delay, energy or area and was
          contained *)
  raised : int;  (** raised an exception and was contained *)
}

val zero_counts : counts
val add_counts : counts -> counts -> counts

val faults : counts -> int
(** [nonfinite + raised]: candidates that failed abnormally (as opposed to
    being structurally rejected). *)

val counts_to_string : counts -> string
(** e.g. ["23040 candidates: 210 evaluated; rejected: geometry 22000, page 0,
    area-pruned 700, bound-pruned 130, nonviable 0, nonfinite 0,
    raised 0"]. *)

(** {1 Whole-solve summary} *)

type summary = {
  sweeps : counts;  (** accumulated over every array solved *)
  cache_hits : int;  (** arrays answered from {!Cacti.Solve_cache} *)
  notes : t list;  (** non-fatal diagnostics gathered along the way *)
}

val summary_to_string : summary -> string

(** {1 CLI exit codes}

    The documented process exit codes shared by [cacti_cli] and
    [llc_study]. *)

val exit_ok : int  (** 0 *)

val exit_usage : int  (** 1 — bad command line *)

val exit_invalid_spec : int  (** 2 — spec validation failed *)

val exit_no_solution : int  (** 3 — valid spec, empty design space *)
