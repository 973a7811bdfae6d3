(** Functional-with-state set-associative cache for the architectural
    simulator: pluggable replacement ({!Policy} — true LRU by default),
    write-back/write-allocate, MESI line states.

    Addresses are line indices (the byte address divided by the line size —
    the engine works in line units throughout).

    Line states are ints: 0 = I, 1 = S, 2 = E, 3 = M.  The per-access
    entry points return sentinel-encoded ints and allocate nothing.
    Replacement metadata lives in pre-sized int arrays (per-way
    stamps/ages/bits and a per-set word for the Tree-PLRU bits or the QLRU
    R1 pointer), so every policy keeps the access path allocation-free.  A
    fill takes the leftmost invalid way of its set; only a full set asks
    the policy for a victim.  [test/oracle/policy_naive.ml] is the
    reference model that every policy is checked against. *)

type t

val create : ?assoc:int -> ?policy:Policy.t -> lines:int -> unit -> t
(** [lines] is the requested capacity in cache lines; [assoc] defaults to 8.
    [lines] must be divisible by [assoc].  The set count is [lines / assoc]
    rounded down to a power of two, and the associativity becomes
    [lines / sets] in integer division, which widens it when the set count
    was rounded down.  The built capacity is [sets * assoc], below
    [lines] when [sets] does not divide [lines] (e.g. [~lines:20 ~assoc:2]
    builds 8 sets of 2 ways).  [policy] (default {!Policy.Lru}) selects
    the replacement policy; [Tree_plru] additionally requires the (possibly
    widened) associativity to be a power of two and at most 32 (a set's
    tree bits live in one int), else [Invalid_argument].

    The state arrays come from the calling domain's free list when one
    fits (the smallest that does), else are allocated; a fresh cache is
    empty either way. *)

val release : t -> unit
(** Returns [t]'s state arrays to the calling domain's free list for the
    next {!create} on that domain.  [t] must not be used afterwards.  A
    domain keeps at most as many free arrays as it once had in use at the
    same time; a domain other than the main one drops them when it
    exits. *)

val set_count : assoc:int -> lines:int -> int
(** The set count {!create} builds for [~assoc ~lines]: [lines / assoc]
    rounded down to a power of two, so a line's set index is always its
    low bits.  Raises [Invalid_argument] on a geometry {!create}
    rejects. *)

val probe_int : t -> int -> int
(** [probe_int t line] is the line's state without touching recency, 0
    ([I]) when absent. *)

val access_int : t -> line:int -> write:bool -> int
(** -1 on a miss, else the pre-access state.  Updates recency; a write
    hit upgrades the state to [M]; misses do NOT allocate (see
    {!fill_packed}). *)

val fill_packed : t -> line:int -> state_int:int -> int
(** Allocates [line] in state [state_int].  Returns -1 when an invalid way
    absorbed the line (an invalid way absorbs the fill first under every
    policy), else the policy's victim, evicted and packed as
    [victim_line * 4 + victim_state].  The line must not already be
    present. *)

val set_state_int : t -> line:int -> int -> unit
(** Downgrade/upgrade a present line in place; 0 ([I]) removes it.  No-op
    when absent. *)

val occupancy : t -> int
(** Number of valid lines (O(capacity); for tests/stats). *)
