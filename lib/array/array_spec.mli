(** Input specification of one RAM array (a bank): the logical geometry the
    partitioning must realize, independent of cache-level concerns.

    A cache data array with capacity C, block size B and associativity A maps
    here as [n_rows = C/(B·A)] logical rows of [row_bits = 8·B·A] bits;
    a main-memory DRAM bank maps its rows/page structure with the
    [page_bits] constraint of Section 2.1 (total sense amplifiers in a
    subbank = page size). *)

type t = {
  ram : Cacti_tech.Cell.ram_kind;
  tech : Cacti_tech.Technology.t;
  n_rows : int;  (** logical rows *)
  row_bits : int;  (** bits per logical row *)
  output_bits : int;  (** bits delivered to the port per access *)
  max_repeater_delay_penalty : float;
      (** Section 2.4 [max repeater delay constraint] *)
  sleep_tx : bool;
      (** halve the leakage of mats not activated by an access (Xeon-style
          sleep transistors) *)
  page_bits : int option;
      (** when set, only organizations whose activated-slice sense-amp count
          equals this page size are valid (main-memory chips) *)
}

val create :
  ?max_repeater_delay_penalty:float ->
  ?sleep_tx:bool ->
  ?page_bits:int ->
  ram:Cacti_tech.Cell.ram_kind ->
  tech:Cacti_tech.Technology.t ->
  n_rows:int ->
  row_bits:int ->
  output_bits:int ->
  unit ->
  t
(** Raises [Invalid_argument] on non-positive geometry. *)

val validate : t -> (t, Cacti_util.Diag.t list) result
(** Spec-level consistency checks (positive geometry and page size, finite
    non-negative repeater penalty, output no wider than the array), run
    before any circuit modeling.  Collects every failure. *)

val addr_bits : t -> int
(** Bits needed to address one output word. *)
