(** Interconnect models, after Ron Ho's wire scaling projections.

    Three wire classes are modeled: [Local] (tight-pitch, lowest metal,
    inside mats), [Semi_global] (intermediate metal, used for intra-bank
    routing such as H-trees) and [Global] (top metal, chip-level routes such
    as the L2–L3 crossbar).  Each node provides the wire geometry; electrical
    RC per unit length is derived from geometry, copper resistivity with
    barrier/scattering corrections, and the node's low-k dielectric.

    Projections come in [Aggressive] (ideal low-k, thin barriers) and
    [Conservative] flavors; CACTI-D defaults to conservative. *)

type kind = Local | Semi_global | Global
type projection = Aggressive | Conservative

type geometry = {
  pitch : float;  (** wire pitch, m *)
  aspect_ratio : float;  (** thickness / width *)
  barrier : float;  (** liner/barrier thickness, m *)
  resistivity : float;  (** effective Cu resistivity incl. scattering, Ω·m *)
  dielectric : float;  (** relative permittivity of surrounding ILD *)
  miller : float;  (** worst-case switching factor on coupling capacitance *)
}

type t = {
  kind : kind;
  geometry : geometry;
  r_per_m : float;  (** Ω/m *)
  c_per_m : float;  (** F/m, total (ground + Miller-weighted coupling) *)
}

val of_geometry : kind -> geometry -> t
(** Derives electrical RC from geometry: conductor cross-section is
    [(w - 2 barrier) * (t - barrier)]; capacitance combines sidewall coupling
    (weighted by the Miller factor) and plate + fringe to the layers
    above/below. *)

val interpolate : t -> t -> float -> t
(** Field-wise mix of two nodes' wires of the same [kind]. *)
