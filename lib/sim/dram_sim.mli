(** Main-memory channel/bank timing model.

    Each channel has one rank of lock-stepped chips exposing [n_banks]
    banks.  Banks track their open row (open-page policy) or precharge
    eagerly (closed-page) and obey tRCD / CAS / tRP / tRC / tRRD, the
    four-activate window tFAW, write-to-read turnaround, periodic refresh
    blackouts (tREFI/tRFC) and the data-bus occupancy.  Requests are served
    in arrival order per bank with a next-free-time model (the
    approximation a trace-driven LLC study needs, not a full scheduler).

    Optionally the rank enters a power-down state after an idle threshold
    (CKE low), paying a wake-up penalty on the next access; the time spent
    powered down is accounted so the energy model can discount standby
    power — the paper's Section 6 suggestion for attacking main-memory
    standby power. *)

type policy = Open_page | Closed_page

type timing = {
  t_rcd : int;  (** cycles *)
  t_cas : int;
  t_rp : int;
  t_rc : int;
  t_rrd : int;
  t_faw : int;  (** rolling four-ACTIVATE window; 0 disables *)
  t_wtr : int;  (** write-to-read turnaround; 0 disables *)
  t_refi : int;  (** refresh interval; 0 disables refresh blackouts *)
  t_rfc : int;  (** refresh blackout length *)
  t_burst : int;  (** data-bus occupancy of one line transfer *)
  t_ctrl : int;  (** controller/queue fixed overhead *)
}

val basic_timing :
  t_rcd:int -> t_cas:int -> t_rp:int -> t_rc:int -> t_rrd:int ->
  t_burst:int -> t_ctrl:int -> timing
(** A timing record with the secondary constraints (tFAW, tWTR, refresh)
    disabled — what the original model used. *)

type powerdown = {
  idle_threshold : int;  (** cycles of channel idleness before CKE drops *)
  wake_penalty : int;  (** cycles added to the access that wakes the rank *)
}

type counts = {
  mutable activates : int;
  mutable reads : int;
  mutable writes : int;
  mutable precharges : int;
  mutable row_hits : int;
  mutable busy_cycles : int;  (** data-bus busy cycles, for bus power *)
  mutable powerdown_cycles : int;  (** channel-cycles spent with CKE low *)
  mutable wakeups : int;
}

type t

val create :
  ?n_channels:int ->
  ?n_banks:int ->
  ?rows_per_bank:int ->
  ?powerdown:powerdown ->
  policy:policy ->
  timing:timing ->
  unit ->
  t

val counts : t -> counts

val access : t -> line:int -> write:bool -> now:int -> int
(** [access t ~line ~write ~now] returns the completion time (cycles) of the
    line transfer, advancing bank/bus state and command counts.  Channel and
    bank are derived from the line address; the row from the higher bits. *)
