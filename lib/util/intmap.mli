(** Open-addressing int -> int hash table specialized for the simulator's
    coherence directory: non-negative line-index keys, non-zero values,
    no boxing anywhere on the query path.

    Compared to [(int, int) Hashtbl.t] this avoids the polymorphic hash,
    the per-bucket cons cells and the [Not_found] control flow — a lookup
    or update is a few array probes.  Deletion uses backward-shift
    compaction (no tombstones), so the table never accumulates dead slots:
    [length] is exactly the number of live bindings and the load factor
    only reflects live data.

    A value of [0] means "absent" by convention: [set t k 0] removes the
    binding, and [get t k] returns [0] for missing keys.  This makes the
    bitmask-directory use-case (mask 0 = no sharers = no entry) leak-free
    by construction. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] is a hint for the initial number of bindings held without
    rehashing (rounded up to a power of two; default 16). *)

val get : t -> int -> int
(** [get t k] is the value bound to [k], or [0] when absent.  [k] must be
    non-negative. *)

val set : t -> int -> int -> unit
(** [set t k v] binds [k] to [v]; [v = 0] removes the binding (and
    compacts the probe chain).  [k] must be non-negative. *)

val clear : t -> unit
(** Removes every binding and keeps the capacity, so a cleared table can
    be reused without allocating.  O(capacity). *)

val length : t -> int
(** Number of live (non-zero) bindings — exact, O(1). *)

val iter : (int -> int -> unit) -> t -> unit
(** Iterates live bindings in unspecified order.  Not used on the
    simulator's hot path — intended for end-of-run audits. *)
