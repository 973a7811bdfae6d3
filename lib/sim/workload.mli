(** Synthetic multithreaded workload model.

    The paper drives its LLC study with NAS Parallel Benchmark (NPB)
    applications; what the study's conclusions depend on is each
    application's instruction mix, synchronization behaviour, and — above
    all — the reuse structure of its memory references relative to the
    cache capacities under test.  This module parameterizes exactly those
    properties: an application is a weighted set of memory [region]s (each
    with a size, an access pattern and private/shared visibility), an
    instruction mix, and barrier/lock cadences.  {!Apps} instantiates the
    eight NPB workloads of the paper.

    Address generation is at 8-byte word granularity; the engine maps words
    onto 64-byte cache lines, so streaming regions naturally hit in L1 on
    7 of 8 consecutive references, while random regions exercise the
    capacity of whichever level can hold them. *)

type pattern =
  | Stream  (** sequential sweep, wrapping — reuse distance = slice size *)
  | Random_access  (** uniform within the region, word-granular (a gather) *)
  | Random_burst of int
      (** a random jump followed by that many sequential words — records,
          stencil blocks and rows accessed at a random position; gives the
          L1 spatial hits real applications have *)
  | Strided of int  (** fixed stride in words *)

type sharing =
  | Private_slice  (** region is partitioned; each thread owns a slice *)
  | Shared  (** all threads address the whole region *)

type region = {
  rname : string;
  size_bytes : int;
  pattern : pattern;
  sharing : sharing;
  weight : float;  (** fraction of memory accesses hitting this region *)
  wr_scale : float;
      (** multiplier on the app's write ratio for this region: 0 for
          read-only structures, 1 (default) for ordinary data *)
}

type app = {
  name : string;
  mem_ratio : float;  (** memory instructions per instruction *)
  fp_ratio : float;  (** FP instructions per instruction (1 cycle each) *)
  write_ratio : float;  (** stores per memory instruction *)
  regions : region list;
  barrier_interval : int;  (** instructions per thread between barriers;
                               0 = no barriers *)
  lock_interval : int;  (** instructions per thread between lock
                            acquisitions; 0 = no locks *)
  lock_hold : int;  (** cycles inside a critical section *)
  n_locks : int;
}

val validate : app -> unit
(** Raises [Invalid_argument] on non-normalized weights or nonsense mixes. *)

val nonmem_cpi : app -> float
(** Cycles per non-memory instruction under the paper's issue rules (FP
    every cycle, everything else every 4 cycles on average). *)

type gen
(** Per-thread address-stream generator state. *)

val gen :
  app -> n_threads:int -> thread_id:int -> seed:int64 -> gen

val replay : int array -> gen
(** A recorded reference stream: element [k] is the [k]-th reference
    packed as {!next_packed} returns it, [(line lsl 1) lor write].  The
    generator returns the elements in order and wraps at the end, so the
    instruction quota, not the array length, ends a run.  The array is
    only read, so one array can feed generators on several domains.
    Raises [Invalid_argument] when it is empty. *)

val next : gen -> int * bool
(** [(line, write)] of the next memory reference; [line] is a 64-byte line
    index in the application's global address space. *)

val next_packed : gen -> int
(** Unboxed {!next}: [(line lsl 1) lor write].  Draws the same random
    numbers in the same order as {!next}, so the two are interchangeable
    without perturbing the reference stream; the engine uses this one to
    keep its per-reference path allocation-free. *)
