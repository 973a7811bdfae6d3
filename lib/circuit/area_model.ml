type t = {
  feature_size : float;
  l_gate : float;
  contacted_pitch : float;
  wiring_factor : float;
}

let create ~feature_size ~l_gate =
  {
    feature_size;
    l_gate;
    contacted_pitch = l_gate +. (3.5 *. feature_size);
    wiring_factor = 1.6;
  }

let default_strip_height t = 32. *. t.feature_size

let legs t ~max_height ~w =
  ignore t;
  max 1 (int_of_float (Float.ceil (w /. max_height)))

let transistor_area t ?max_height w =
  let max_height =
    match max_height with Some h -> h | None -> default_strip_height t
  in
  let n = legs t ~max_height ~w in
  let leg_h = min w max_height in
  float_of_int n *. t.contacted_pitch *. leg_h

let gate_area t ?max_height widths =
  let a =
    List.fold_left (fun acc w -> acc +. transistor_area t ?max_height w) 0.
      widths
  in
  a *. t.wiring_factor
