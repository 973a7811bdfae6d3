(** A circuit block's contribution to the array metrics.

    Every circuit module reports the same four quantities, so blocks on one
    access path compose by adding them. *)

type t = {
  delay : float;  (** s, through the block *)
  energy : float;  (** J, dynamic energy per operation of the block *)
  leakage : float;  (** W, standby leakage of the block *)
  area : float;  (** m², layout area of the block *)
}
