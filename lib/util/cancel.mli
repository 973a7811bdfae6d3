(** Cooperative cancellation tokens for long-running solves.

    A token is the one-way signal "stop working on this request": it can be
    fired explicitly ({!cancel}), fire itself when a wall-clock deadline
    passes, or inherit cancellation from a parent token (a server-wide
    drain token parenting every in-flight request's deadline token).  The
    solver polls the token at partition boundaries — {!check} raises
    {!Cancelled} once the token has fired — so an abandoned design-space
    sweep unwinds within one chunk of candidates instead of burning a
    worker to completion.

    Tokens are thread- and domain-safe: the flag is an [Atomic.t] and the
    deadline is immutable, so {!check} from any number of pool domains is
    race-free.  A poll costs one atomic load plus (for deadline tokens)
    one [Unix.gettimeofday]; {!never} short-circuits to the atomic load
    alone, so un-deadlined solves pay nothing measurable. *)

type t

exception Cancelled of string
(** The token's {e reason} tag (e.g. ["deadline"], ["drain"]), stable and
    machine-readable so the catcher can map it to the right typed
    diagnostic. *)

val never : t
(** The inert token: never fires.  The default everywhere a [?cancel] is
    accepted. *)

val create : ?reason:string -> ?deadline_at:float -> ?parent:t -> unit -> t
(** A fresh token.  [reason] (default ["cancelled"]) tags {!Cancelled}
    when {e this} token fires.  [deadline_at] is an absolute
    [Unix.gettimeofday] instant after which the token counts as fired
    without anyone calling {!cancel}.  [parent] chains tokens: this token
    also counts as fired whenever the parent is, carrying the {e parent's}
    reason. *)

val cancel : t -> unit
(** Fire the token (idempotent).  Polls already in flight observe it at
    their next {!check}. *)

val cancelled : t -> bool

val check : t -> unit
(** Raise [Cancelled reason] if the token has fired; return otherwise.
    This is the solver's poll point. *)
