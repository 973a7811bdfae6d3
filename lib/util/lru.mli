(** Mutex-guarded LRU memo table.

    One shared implementation for every cache in the tree: the
    selected-bank memo, screen contexts, and the serve layer's response
    cache.  All operations are thread-safe; values must be
    treated as immutable by callers (a reference handed out under the
    lock stays valid after release). *)

type stats = { hits : int; misses : int }

type ('k, 'v) t

val create : unit -> ('k, 'v) t
(** Fresh unbounded table. *)

val find : ('k, 'v) t -> 'k -> 'v option
(** Counted lookup: bumps [hits] or [misses] and refreshes recency. *)

val mem : ('k, 'v) t -> 'k -> bool
(** Uncounted presence probe: neither the hit/miss counters nor the
    recency order move. *)

val publish : ('k, 'v) t -> 'k -> 'v -> 'v
(** First store wins: if the key is already present, the existing value
    is returned (and touched) and the argument discarded — two racing
    misses of a deterministic compute both publish the identical value
    and later hits share one copy.  The adopting lookup is not counted
    as a hit. *)

val put : ('k, 'v) t -> 'k -> 'v -> unit
(** Unconditional replace (last store wins), for entries updated in
    place. *)

val stats : ('k, 'v) t -> stats
val size : ('k, 'v) t -> int
val capacity : ('k, 'v) t -> int option

val set_capacity : ('k, 'v) t -> what:string -> int option -> unit
(** Cap the table at [Some n] entries (evicting LRU-first immediately if
    over), or lift the cap with [None].  Raises [Invalid_argument] citing
    [what] on a negative cap. *)

val clear : ('k, 'v) t -> unit
(** Drop all entries and reset the hit/miss counters. *)

val dump : ('k, 'v) t -> ('k * 'v) list
(** Entries in least-recently-used-first order, so re-inserting in dump
    order reconstructs the recency order. *)

val restore : ('k, 'v) t -> ('k * 'v) list -> unit
(** Insert entries that are not already present, in list order. *)
