(** Functional-with-state set-associative cache for the architectural
    simulator: pluggable replacement ({!Policy} — true LRU by default),
    write-back/write-allocate, MESI line states.

    Addresses are line indices (the byte address divided by the line size —
    the engine works in line units throughout).

    The per-access entry points come in two flavors: the boxed API
    ({!access}, {!fill}, {!probe}) used by tests and exploratory code, and
    the unboxed [_int]/[_packed] API the engine's hot loop uses, which
    returns sentinel-encoded ints and allocates nothing.  Replacement
    metadata lives in pre-sized int arrays (per-way stamps/ages/bits and a
    per-set word for the Tree-PLRU bits or the QLRU R1 pointer), so every
    policy keeps the access path allocation-free.  A fill takes the
    leftmost invalid way of its set; only a full set asks the policy for a
    victim.  [test/oracle/policy_naive.ml] is the reference model that
    every policy is checked against. *)

type state = I | S | E | M

val state_to_int : state -> int
(** [I]=0, [S]=1, [E]=2, [M]=3 — the encoding of the unboxed API. *)

val state_of_int : int -> state

type t

val create : ?assoc:int -> ?policy:Policy.t -> lines:int -> unit -> t
(** [lines] is the requested capacity in cache lines; [assoc] defaults to 8.
    [lines] must be divisible by [assoc].  The set count is [lines / assoc]
    rounded down to a power of two, and the associativity becomes
    [lines / sets] in integer division, which widens it when the set count
    was rounded down.  The built capacity {!lines} is [sets * assoc], below
    [lines] when [sets] does not divide [lines] (e.g. [~lines:20 ~assoc:2]
    builds 8 sets of 2 ways).  [policy] (default {!Policy.Lru}) selects
    the replacement policy; [Tree_plru] additionally requires the (possibly
    widened) associativity to be a power of two, else [Invalid_argument]. *)

val set_count : assoc:int -> lines:int -> int
(** The set count {!create} builds for [~assoc ~lines]: [lines / assoc]
    rounded down to a power of two, so a line's set index is always its
    low bits.  Raises [Invalid_argument] on a geometry {!create}
    rejects. *)

val lines : t -> int
val assoc : t -> int
val sets : t -> int

type lookup = Hit of state | Miss

val probe : t -> int -> state
(** [probe t line] is the MESI state without touching recency. [I] when
    absent. *)

val probe_int : t -> int -> int
(** Unboxed {!probe}: the state encoding, 0 ([I]) when absent. *)

val access : t -> line:int -> write:bool -> lookup
(** Updates recency; a write hit upgrades the state to [M]; misses do NOT
    allocate (see {!fill}). *)

val access_int : t -> line:int -> write:bool -> int
(** Unboxed {!access}: -1 on miss, else the pre-access state encoding.
    Same recency/upgrade side effects. *)

type eviction = { line : int; state : state }

val fill : t -> line:int -> state:state -> eviction option
(** Allocates [line] (the policy's victim is evicted and returned if it was
    valid; an invalid way absorbs the fill first under every policy).
    The line must not already be present. *)

val fill_packed : t -> line:int -> state_int:int -> int
(** Unboxed {!fill}: -1 when an invalid way absorbed the line, else the
    evicted way packed as [victim_line * 4 + victim_state_int]. *)

val set_state : t -> line:int -> state -> unit
(** Downgrade/upgrade a present line in place; [I] removes it.  No-op when
    absent. *)

val set_state_int : t -> line:int -> int -> unit
(** Unboxed {!set_state} (0 removes). *)

val occupancy : t -> int
(** Number of valid lines (O(capacity); for tests/stats). *)

val dirty_lines : t -> int list
(** All lines in state [M] (for drain/writeback accounting at end of
    simulation). *)
