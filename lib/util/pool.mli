(** A small work-stealing domain pool for fanning out independent
    evaluations (the Section 2.4 design-space sweep) across cores.

    Work is claimed in chunks from a shared atomic counter, which amortizes
    domain-spawn cost and balances uneven per-element work.  Both map
    functions preserve input order exactly, so a parallel run returns the
    same list — element for element — as a serial one; parallelism only
    reorders the evaluation, never the result. *)

type t

val default_jobs : unit -> int
(** [Domain.recommended_domain_count () - 1], at least 1. *)

val create : ?jobs:int -> unit -> t
(** [jobs] is the total worker count including the calling domain;
    [jobs = 1] (or any value below) runs everything serially on the caller.
    Defaults to {!default_jobs}. *)

val serial : t
(** A pool that never spawns: [create ~jobs:1 ()]. *)

val run_chunked : chunk:int -> t -> int -> (int -> unit) -> unit
(** [run_chunked ~chunk t n body] runs [body i] for every [i] in
    [0 .. n-1], claiming [chunk] consecutive indices per steal.  Within a
    chunk indices are processed in order; at [jobs = 1] everything runs
    in order on the caller.  Exceptions propagate after all domains join
    (first one wins). *)

val parallel_map : ?chunk:int -> t -> ('a -> 'b) -> 'a list -> 'b list
(** Order-preserving map.  [chunk] (default 32) elements are claimed per
    steal.  Exceptions raised by [f] propagate after all domains join. *)

val parallel_filter_map :
  ?chunk:int -> t -> ('a -> 'b option) -> 'a list -> 'b list
(** Order-preserving filter-map with the same chunking. *)
