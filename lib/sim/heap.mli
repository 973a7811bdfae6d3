(** Binary min-heap keyed on simulation time, specialized to
    (time, payload) pairs of ints — the event queue of the engine.

    Tie-breaking on equal times is NOT insertion order, but it is a
    deterministic pure function of the push/pop sequence (all sift
    comparisons are strict, so equal keys never exchange).  The engine's
    reproducibility across runs and [--jobs] values depends on exactly
    this property; it is pinned by tests.

    [create ~capacity] allocates the backing arrays once; a heap never
    holding more than [capacity] elements never allocates again ([push]
    only grows the arrays beyond that point).  The engine sizes its heap
    from the thread count — one pending event per thread — so its event
    loop is grow-free and allocation-free. *)

type t

val create : capacity:int -> t
(** Exact pre-sizing: the arrays hold [max 1 capacity] elements before the
    first (amortized-doubling) grow. *)

val capacity : t -> int
(** Current backing-array size (to assert grow-freedom in tests). *)

val push : t -> time:int -> payload:int -> unit

val pop : t -> (int * int) option
(** Smallest time first; see the module comment for tie behavior. *)

val pop_payload : t -> int
(** Unboxed {!pop} dropping the time: the payload of the minimum element,
    or -1 when empty.  Payloads must be non-negative for the sentinel to
    be unambiguous. *)

val size : t -> int
