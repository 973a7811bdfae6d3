type kind = Local | Semi_global | Global
type projection = Aggressive | Conservative

type geometry = {
  pitch : float;
  aspect_ratio : float;
  barrier : float;
  resistivity : float;
  dielectric : float;
  miller : float;
}

type t = {
  kind : kind;
  geometry : geometry;
  r_per_m : float;
  c_per_m : float;
}

let eps0 = 8.854e-12

let of_geometry kind g =
  let width = g.pitch /. 2. in
  let thickness = g.aspect_ratio *. width in
  let spacing = g.pitch -. width in
  (* Copper cross-section shrinks by the barrier on both sidewalls and the
     bottom. *)
  let w_cu = max (width -. (2. *. g.barrier)) (0.3 *. width) in
  let t_cu = max (thickness -. g.barrier) (0.3 *. thickness) in
  let r_per_m = g.resistivity /. (w_cu *. t_cu) in
  (* Sidewall (coupling) capacitance to both neighbors, Miller-weighted, plus
     parallel-plate area capacitance to the layers above and below (ILD height
     taken equal to wire thickness) and a fringe term. *)
  let c_side =
    g.miller *. 2. *. eps0 *. g.dielectric *. (thickness /. spacing)
  in
  let c_plate = 2. *. eps0 *. g.dielectric *. (width /. thickness) in
  let c_fringe = 2. *. eps0 *. g.dielectric *. 1.5 in
  let c_per_m = c_side +. c_plate +. c_fringe in
  { kind; geometry = g; r_per_m; c_per_m }

let lin a b t = a +. ((b -. a) *. t)

let interpolate a b t =
  assert (a.kind = b.kind);
  let g =
    {
      pitch = lin a.geometry.pitch b.geometry.pitch t;
      aspect_ratio = lin a.geometry.aspect_ratio b.geometry.aspect_ratio t;
      barrier = lin a.geometry.barrier b.geometry.barrier t;
      resistivity = lin a.geometry.resistivity b.geometry.resistivity t;
      dielectric = lin a.geometry.dielectric b.geometry.dielectric t;
      miller = lin a.geometry.miller b.geometry.miller t;
    }
  in
  of_geometry a.kind g
