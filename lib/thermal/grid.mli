(** Steady-state compact thermal model (HotSpot-style RC network).

    The die stack is discretized into an [nx × ny] lateral grid per layer;
    each cell couples laterally within its layer and vertically to the
    layers above/below through conductances derived from the material's
    thermal conductivity and geometry.  The top of the stack connects to
    ambient through a heat-sink conductance.  Power is injected per cell
    and the steady-state temperature field is solved by Gauss–Seidel
    relaxation. *)

type layer = {
  lname : string;
  thickness : float;  (** m *)
  conductivity : float;  (** W/(m·K) *)
  volumetric_heat : float;  (** J/(m³·K); unused at steady state, kept for
                                future transient support *)
}

val silicon : layer
val tim : layer
(** thermal interface material *)

val copper_spreader : layer
val die_bond : layer
(** face-to-face bond / TSV layer between stacked dies *)

type t

val create :
  nx:int ->
  ny:int ->
  cell_w:float ->
  cell_h:float ->
  layers:layer list ->
  sink_conductance:float ->
  ambient:float ->
  t
(** [layers] are ordered bottom (furthest from the sink) to top; the sink
    attaches above the last layer.  [sink_conductance] is W/K for the whole
    top surface. *)

val set_power : t -> layer:int -> x:int -> y:int -> float -> unit

val solve : ?strict:bool -> ?tol:float -> ?max_iter:int -> t -> unit
(** Gauss–Seidel to [tol] (K, default 1e-4) or [max_iter] (default 20000)
    sweeps; convergence is always judged on the last sweep's residual.
    On non-convergence the grid keeps the best-effort temperature field of
    the last sweep; [strict] (default false) then raises [Failure] with a
    [thermal/non_convergence] warning diagnostic naming the final residual
    and iteration count. *)

val temperature : t -> layer:int -> x:int -> y:int -> float
val max_temperature : t -> float
val max_in_layer : t -> layer:int -> float
