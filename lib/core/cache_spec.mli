(** User-facing cache specification. *)

type access_mode =
  | Normal  (** tags and data in parallel, late way select *)
  | Sequential
      (** data only after the tag lookup: serialized (slower) access; the
          data array then activates only the matched way, which the energy
          model credits as a reduced read energy *)
  | Fast  (** all ways shipped to the edge, selected there *)

type t = {
  capacity_bytes : int;  (** total, across banks *)
  block_bytes : int;
  assoc : int;
  n_banks : int;
  ram : Cacti_tech.Cell.ram_kind;  (** data-array technology *)
  tag_ram : Cacti_tech.Cell.ram_kind;  (** tag array (defaults to [ram]) *)
  access_mode : access_mode;
  phys_addr_bits : int;
  status_bits : int;  (** valid/dirty/coherence bits per tag entry *)
  sleep_tx : bool;
  tech : Cacti_tech.Technology.t;
}

val create :
  ?block_bytes:int ->
  ?assoc:int ->
  ?n_banks:int ->
  ?ram:Cacti_tech.Cell.ram_kind ->
  ?tag_ram:Cacti_tech.Cell.ram_kind ->
  ?access_mode:access_mode ->
  ?phys_addr_bits:int ->
  ?status_bits:int ->
  ?sleep_tx:bool ->
  tech:Cacti_tech.Technology.t ->
  capacity_bytes:int ->
  unit ->
  t
(** Defaults: 64 B blocks, 8-way, 1 bank, SRAM, tags in the data-array
    technology, Normal access, 42-bit physical addresses, 2 status bits, no
    sleep transistors.
    Raises [Invalid_argument] on inconsistent geometry (capacity not
    divisible into banks/sets, non-power-of-two block size, ...). *)

val create_result :
  ?block_bytes:int ->
  ?assoc:int ->
  ?n_banks:int ->
  ?ram:Cacti_tech.Cell.ram_kind ->
  ?tag_ram:Cacti_tech.Cell.ram_kind ->
  ?access_mode:access_mode ->
  ?phys_addr_bits:int ->
  ?status_bits:int ->
  ?sleep_tx:bool ->
  tech:Cacti_tech.Technology.t ->
  capacity_bytes:int ->
  unit ->
  (t, Cacti_util.Diag.t list) result
(** Like {!create} but returns every validation failure as a structured
    diagnostic instead of raising on the first. *)

val validate : t -> (t, Cacti_util.Diag.t list) result
(** All spec-level consistency checks (positivity, power-of-two block,
    capacity divisibility, tag-width sanity), run before any circuit
    modeling.  Collects every failure; [Ok] returns the spec unchanged.
    Associativity is deliberately not required to be a power of two — the
    paper's studies use 12/18/24-way configurations. *)

val sets_per_bank : t -> int
val tag_bits : t -> int
