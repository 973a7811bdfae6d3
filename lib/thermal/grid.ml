type layer = {
  lname : string;
  thickness : float;
  conductivity : float;
  volumetric_heat : float;
}

let silicon =
  { lname = "silicon"; thickness = 150e-6; conductivity = 130.; volumetric_heat = 1.75e6 }

let tim = { lname = "TIM"; thickness = 20e-6; conductivity = 4.; volumetric_heat = 4e6 }

let copper_spreader =
  { lname = "spreader"; thickness = 1e-3; conductivity = 400.; volumetric_heat = 3.55e6 }

let die_bond =
  { lname = "bond"; thickness = 20e-6; conductivity = 10.; volumetric_heat = 2e6 }

type t = {
  nx : int;
  ny : int;
  nl : int;
  cell_w : float;
  cell_h : float;
  layers : layer array;
  sink_conductance : float;
  ambient : float;
  power : float array;
  temp : float array;
  g_lat_x : float array;  (** per layer *)
  g_lat_y : float array;
  g_vert : float array;  (** between layer l and l+1, length nl (last = sink) *)
}

let idx t l x y = (l * t.nx * t.ny) + (y * t.nx) + x

let create ~nx ~ny ~cell_w ~cell_h ~layers ~sink_conductance ~ambient =
  let layers = Array.of_list layers in
  let nl = Array.length layers in
  if nl = 0 || nx <= 0 || ny <= 0 then invalid_arg "Grid.create";
  let g_lat_x =
    Array.map
      (fun l -> l.conductivity *. l.thickness *. cell_h /. cell_w)
      layers
  in
  let g_lat_y =
    Array.map
      (fun l -> l.conductivity *. l.thickness *. cell_w /. cell_h)
      layers
  in
  let area = cell_w *. cell_h in
  let g_vert =
    Array.init nl (fun i ->
        if i = nl - 1 then sink_conductance /. float_of_int (nx * ny)
        else
          let a = layers.(i) and b = layers.(i + 1) in
          let r =
            (0.5 *. a.thickness /. (a.conductivity *. area))
            +. (0.5 *. b.thickness /. (b.conductivity *. area))
          in
          1. /. r)
  in
  {
    nx;
    ny;
    nl;
    cell_w;
    cell_h;
    layers;
    sink_conductance;
    ambient;
    power = Array.make (nl * nx * ny) 0.;
    temp = Array.make (nl * nx * ny) ambient;
    g_lat_x;
    g_lat_y;
    g_vert;
  }

let set_power t ~layer ~x ~y p = t.power.(idx t layer x y) <- p

(* One Gauss–Seidel sweep; returns the largest per-cell temperature change. *)
let sweep t =
  let changed = ref 0. in
  for l = 0 to t.nl - 1 do
    for y = 0 to t.ny - 1 do
      for x = 0 to t.nx - 1 do
        let i = idx t l x y in
        let num = ref t.power.(i) and den = ref 0. in
        let couple g j =
          num := !num +. (g *. t.temp.(j));
          den := !den +. g
        in
        if x > 0 then couple t.g_lat_x.(l) (idx t l (x - 1) y);
        if x < t.nx - 1 then couple t.g_lat_x.(l) (idx t l (x + 1) y);
        if y > 0 then couple t.g_lat_y.(l) (idx t l x (y - 1));
        if y < t.ny - 1 then couple t.g_lat_y.(l) (idx t l x (y + 1));
        if l > 0 then couple t.g_vert.(l - 1) (idx t (l - 1) x y);
        if l < t.nl - 1 then couple t.g_vert.(l) (idx t (l + 1) x y)
        else begin
          (* top layer couples to ambient through the sink *)
          num := !num +. (t.g_vert.(l) *. t.ambient);
          den := !den +. t.g_vert.(l)
        end;
        let nt = !num /. !den in
        let d = Float.abs (nt -. t.temp.(i)) in
        if d > !changed then changed := d;
        t.temp.(i) <- nt
      done
    done
  done;
  !changed

let solve_diag ?(tol = 1e-4) ?(max_iter = 20_000) t =
  let residual = ref Float.infinity in
  let iter = ref 0 in
  (* Convergence is judged on the residual of the last sweep actually
     performed, whichever condition ends the loop. *)
  while !iter < max_iter && !residual > tol do
    residual := sweep t;
    incr iter
  done;
  if !residual <= tol then Ok !iter
  else
    Error
      (Cacti_util.Diag.warningf ~component:"thermal" ~reason:"non_convergence"
         "Gauss-Seidel residual %.3g K still above tolerance %.3g K after %d \
          iterations; temperatures are best-effort"
         !residual tol !iter)

let solve ?(strict = false) ?tol ?max_iter t =
  match solve_diag ?tol ?max_iter t with
  | Ok _ -> ()
  | Error d -> if strict then failwith (Cacti_util.Diag.to_string d)

let temperature t ~layer ~x ~y = t.temp.(idx t layer x y)

let max_temperature t =
  Array.fold_left Cacti_util.Floatx.max neg_infinity t.temp

let max_in_layer t ~layer =
  let m = ref neg_infinity in
  for y = 0 to t.ny - 1 do
    for x = 0 to t.nx - 1 do
      m := Cacti_util.Floatx.max !m (temperature t ~layer ~x ~y)
    done
  done;
  !m
