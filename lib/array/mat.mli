(** A mat: up to 2×2 subarrays around a central row-decode strip, with
    pitch-matched sense amplifiers and output muxing along the bottom.

    The mat is where the row path (predecode → decode → wordline), the
    column path (bitline → sense amp → output muxes) and the local strips'
    area live.  The bank composes mats with an H-tree. *)

type t = {
  subarray : Subarray.t;
  n_subarrays : int;  (** 1, 2 or 4 *)
  horiz_subarrays : int;  (** 1 or 2: subarrays sharing the wordline *)
  width : float;
  height : float;
  area : float;
  decoder : Cacti_circuit.Decoder.t;
  sense : Cacti_circuit.Sense_amp.t;
  n_sense_amps : int;  (** per mat *)
  active_cols : int;  (** columns whose bitlines swing on an access *)
  sensed_bits : int;  (** columns actually sensed per access *)
  out_bits : int;  (** bits the mat delivers after Ndsam muxing *)
  t_row_path : float;  (** s: predec + decode + wordline *)
  t_wordline : float;  (** s: wordline component only *)
  t_bitline : float;  (** s: develop (SRAM) / charge-share (DRAM) *)
  t_sense : float;
  t_column_out : float;  (** s: mux traversal to the mat port *)
  t_precharge : float;
  t_restore : float;  (** DRAM writeback; 0 for SRAM *)
  e_row_activate : float;  (** J: decode + wordline + bitlines + sense *)
  e_column_read : float;  (** J: mux path + output for [out_bits] *)
  e_column_write : float;  (** J: driving writes for [out_bits] columns *)
  e_precharge : float;
  leakage : float;  (** W: mat periphery + cells *)
  leakage_cells : float;  (** W: cell portion (sleep-gateable) *)
}

type geometry = {
  g_rows_sub : int;  (** rows per subarray *)
  g_cols_sub : int;  (** columns per subarray *)
  g_horiz : int;  (** subarrays sharing the wordline (1 or 2) *)
  g_vert : int;  (** subarrays stacked per mat (1 or 2) *)
  g_out_bits : int;  (** bits per mat after Ndsam muxing *)
  g_sensed : int;  (** sense amps per mat *)
  g_sensed_per_access : int;  (** columns sensed per access *)
}

val classify :
  spec:Array_spec.t -> org:Org.t -> (geometry, [ `Geometry | `Page ]) result
(** The cheap, purely arithmetic part of {!make_staged}: integer tiling,
    subarray-dimension bounds, mux-chain/output-width matching and the
    main-memory page constraint.  [Error `Page] when only the page
    constraint fails, [Error `Geometry] for the structural screens — the
    enumeration uses the distinction to build its rejection histogram before
    any circuit modeling. *)

type screen_tree
(** The [n_rows]-independent part of the hierarchical tiling screen: every
    check except the rows-per-subarray division depends only on
    [row_bits], [output_bits], [page_bits], the cell kind and the grid
    bounds, so it is evaluated once into this tree and shared across
    specs that differ only in size or technology node. *)

val screen_tree :
  ?max_ndwl:int -> ?max_ndbl:int -> spec:Array_spec.t -> unit -> screen_tree
(** Build the rows-independent screen tree for a spec (defaults: 64x64
    partition grid, matching {!screen}). *)

val screen_of_tree :
  screen_tree -> n_rows:int -> (Org.t * geometry) list * int * int * int
(** Instantiate a screen tree for a row count:
    [(survivors, n_total, n_geometry, n_page)], bit-identical (same
    survivors in the same order, same counts) to {!screen} on the spec the
    tree was built from with [n_rows] substituted. *)

val screen_key :
  ?max_ndwl:int -> ?max_ndbl:int -> spec:Array_spec.t -> unit -> string
(** Identity of a {!screen_tree}: two specs with equal keys (and equal
    grid bounds) produce equal trees.  Excludes [n_rows] — that axis is
    resolved by {!screen_of_tree} — and the technology node, which the
    purely arithmetic screen never reads. *)

val screen :
  ?max_ndwl:int ->
  ?max_ndbl:int ->
  spec:Array_spec.t ->
  unit ->
  (Org.t * geometry) list * int * int * int
(** Hierarchical tiling screen over the whole partition grid:
    [(survivors, n_total, n_geometry, n_page)].  Equivalent to running
    {!classify} on every element of [Org.candidates] — same survivor list
    (in the same order, paired with their geometry) and same rejection
    counts — but walks the grid as nested loops, hoisting each check to
    the outermost level whose dimensions determine it and bulk-counting
    pruned subtrees, so the cost is proportional to the interior of the
    grid rather than its ~63k leaves.  Implemented as
    [screen_of_tree (screen_tree ...) ~n_rows:spec.n_rows]. *)

val staged_of_spec : Array_spec.t -> Cacti_circuit.Staged.t
(** The staged per-spec constants ({!Cacti_circuit.Staged.t}) for this
    spec's technology, cell type and repeater delay penalty. *)

val make_staged :
  staged:Cacti_circuit.Staged.t ->
  spec:Array_spec.t ->
  org:Org.t ->
  unit ->
  t option
(** The mat of one organization, or [None] when it is geometrically or
    electrically invalid for the spec (non-integer tiling, DRAM signal too
    small, mux chain not matching the output width, etc.).  [staged] must
    be [staged_of_spec spec] or an equal record. *)

val subarray_of :
  staged:Cacti_circuit.Staged.t -> rows:int -> cols:int -> deg:int ->
  Subarray.t
(** The subarray sub-stage of {!make_staged}: bitline RC and cell
    geometry for a (rows, cols, effective bitline-mux degree) tuple. *)

val predecode_of :
  staged:Cacti_circuit.Staged.t ->
  Subarray.t ->
  vert:int ->
  Cacti_circuit.Decoder.predecode
(** The predecode half of the row decoder: depends only on the
    subarray's rows and the mat's [vert] (its select-line count and strip
    length), not on the columns or the bitline-mux degree. *)

val line_driver_of :
  staged:Cacti_circuit.Staged.t ->
  Subarray.t ->
  horiz:int ->
  Cacti_circuit.Decoder.line_driver
(** The wordline-driver half of the row decoder: depends only on the
    subarray's columns and the mat's [horiz] (the wordline's RC).  The
    row decoder of {!make_staged} is
    [Decoder.combine (predecode_of ...) (line_driver_of ...)]. *)

val eff_deg : staged:Cacti_circuit.Staged.t -> Org.t -> int
(** The effective bitline-mux degree: the organization's, or 1 for DRAM. *)

type base
(** Everything a mat's (geometry, effective degree) pair fixes: the
    subarray, the decoder, sensing, the bitline mux, control, energies
    other than the column read, and the partial sums the Ndsam terms are
    added to.  The candidates of one screen leaf share one. *)

val base :
  staged:Cacti_circuit.Staged.t ->
  deg:int ->
  geometry ->
  subarray:Subarray.t ->
  decoder:Cacti_circuit.Decoder.t ->
  base
(** [deg] is the effective bitline-mux degree ({!eff_deg}); [subarray]
    and [decoder] are the sub-stages designed for [geometry] and [deg]. *)

val finish :
  staged:Cacti_circuit.Staged.t -> base -> ndsam_lev1:int -> ndsam_lev2:int -> t
(** The mat of one Ndsam pair: the two output-mux levels added to the
    base, every sum in the one-piece assembly's association order, so
    [finish (base ...)] is bit-identical to assembling the mat whole (the
    reference is [test/oracle/mat_onepiece.ml]). *)

val eval_base :
  staged:Cacti_circuit.Staged.t ->
  sub_of:(rows:int -> cols:int -> deg:int -> Subarray.t) ->
  dec_of:
    (Subarray.t -> horiz:int -> vert:int -> Cacti_circuit.Decoder.t) ->
  deg:int ->
  geometry ->
  base option
(** The base of an already-screened geometry through caller-supplied
    sub-stage providers.  [sub_of] must behave like {!subarray_of} and
    [dec_of] like the combination of {!predecode_of} and
    {!line_driver_of} (e.g. memoized wrappers); {!finish} of the result
    is then bit-identical to {!make_staged}.  [None] exactly when the
    subarray is electrically nonviable. *)

val fingerprint_salt : spec:Array_spec.t -> string
(** The spec inputs every subarray and decoder design reads (cell kind,
    feature size, wire projection) as one string.  Two specs with equal
    salts get bit-identical {!subarray_of}, {!predecode_of} and
    {!line_driver_of} results for equal dimensions, which is what lets a
    sub-stage memo keyed by (salt, dims) be shared across specs and
    sweeps. *)
