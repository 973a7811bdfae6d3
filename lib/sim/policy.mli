(** Cache replacement policies.

    The simulator's caches historically implemented one policy — true LRU —
    hard-wired into {!Cache_sim}'s victim selection.  This module makes
    replacement pluggable per cache level so the trace-replay frontend can
    model the policies real CPUs ship: besides true LRU, the
    reverse-engineered Intel policies catalogued by the uops.info / CacheTrace
    line of work (Tree-PLRU, the QLRU_Hxy_Mz_Rw_Uv family, MRU and MRU_N),
    plus named per-CPU presets ([--cpu nehalem|snb|ivb|hsw|skl|cfl]) mapping
    to an (L1, L2, L3) policy tuple.

    {b Semantics} (deterministic "replay policy semantics v1"; the original
    definitions are reverse-engineered, so golden tests in
    [test/test_replay.ml] pin this module's exact behaviour, and
    [test/oracle/policy_naive.ml] restates it as the reference model
    {!Cache_sim} is checked against):

    - {b LRU} — true least-recently-used via per-way recency stamps: the
      victim is the way whose last fill or hit is oldest.  The default
      policy of {!Cache_sim}.
    - {b TREE_PLRU} — tree pseudo-LRU over a power-of-two associativity:
      one direction bit per internal node of a balanced binary tree; an
      access flips the bits on its root path to point away from the
      accessed way; the victim is found by following the bits from the
      root (bit 0 = left).
    - {b QLRU_Hxy_Mz_Rw_Uv} — quad-age LRU.  Every valid way carries a
      2-bit age; age-3 ways are replacement candidates.
      [Hxy] (hit promotion): a hit on a way of age 0 or 1 sets its age
      to 0, age 2 becomes [x], age 3 becomes [y].
      [Mz] (insertion): a filled way starts at age [z].
      [Rw] (victim choice among age-3 ways): [R0] takes the leftmost
      (lowest way index); [R1] keeps a per-set round-robin pointer, scans
      cyclically from it and advances it past the victim.
      [Uv] (aging): when a victim is needed and no way has age 3, every
      way's age is raised by the same amount so the oldest reaches 3
      (all variants); additionally [U1] ages all {e other} valid ways by
      one (saturating at 3) on every fill, and [U2] does so on every fill
      {e and} every hit.
    - {b MRU} — one "recently used" bit per way (also known as NRU or
      PLRU-m): an access sets the way's bit; when that saturates the set,
      all other bits are cleared.  The victim is the leftmost way with a
      clear bit.
    - {b MRU_N} — like MRU, but hits never clear other ways' bits; only a
      fill does.  If a victim is needed while every bit is set, all bits
      are cleared and way 0 is evicted. *)

type t =
  | Lru
  | Tree_plru
  | Qlru of { h2 : int; h3 : int; m : int; r : int; u : int }
      (** [h2],[h3],[m] in 0..3, [r] in 0..1, [u] in 0..2 — see above. *)
  | Mru
  | Mru_n

val to_string : t -> string
(** Canonical upper-case name, e.g. ["QLRU_H11_M1_R1_U2"]; parses back with
    {!of_string}. *)

val of_string : string -> (t, Cacti_util.Diag.t) result
(** Case-insensitive.  Accepts ["lru"], ["tree_plru"] (alias ["plru"]),
    ["mru"], ["mru_n"], and ["qlru_hXY_mZ_rW_uV"] with digits in range.
    Unknown or out-of-range names yield an [error[replay/unknown_policy]]
    diagnostic listing the valid names — never a silent fallback. *)

(** {1 CPU presets}

    Per-CPU (L1, L2, L3) policy tuples following the CacheTrace table
    (L3 column exact; L1/L2 are Tree-PLRU on all six parts, with the
    QLRU L2 on Ivy Bridge and later). *)

type preset = {
  cpu : string;  (** canonical name, e.g. ["skylake"] *)
  short : string;  (** e.g. ["skl"] *)
  year : int;
  l1 : t;
  l2 : t;
  l3 : t;
}

val preset_of_string : string -> (preset, Cacti_util.Diag.t) result
(** Case-insensitive, by canonical or short name: nehalem|nhm (2008),
    sandybridge|snb (2011), ivybridge|ivb (2012), haswell|hsw (2013),
    skylake|skl (2015), coffeelake|cfl (2017).  Unknown CPUs yield an
    [error[replay/unknown_cpu]] diagnostic listing the valid names — unlike
    CacheTrace, which silently falls back to Coffee Lake. *)

(** {1 Unboxed dispatch support for {!Cache_sim}} *)

val kind_int : t -> int
(** [Lru]=0, [Tree_plru]=1, [Qlru _]=2, [Mru]=3, [Mru_n]=4 — the dispatch
    code {!Cache_sim} branches on in its allocation-free hot path. *)

val qlru_params : t -> int * int * int * int * int
(** [(h2, h3, m, r, u)] of a [Qlru]; zeros for every other policy. *)
