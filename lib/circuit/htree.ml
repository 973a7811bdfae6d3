type t = {
  length_worst : float;
  length_average : float;
  repeater : Repeater.t;
}

let plan ~repeater ~bank_width ~bank_height =
  (* Port at the middle of the bottom edge: go up half the height and
     sideways up to half the width. *)
  let length_worst = (bank_height /. 2.) +. (bank_width /. 2.) in
  let length_average = (bank_height /. 4.) +. (bank_width /. 4.) in
  { length_worst; length_average; repeater }

let link t ?(worst = true) ~bits ~activity () =
  let length = if worst then t.length_worst else t.length_average in
  let per_wire = Repeater.drive t.repeater ~length in
  (* The full tree has roughly 2x the wire of the worst-case path; leakage
     (and area) follow the tree, energy follows the driven path. *)
  let tree_factor = 2.0 in
  {
    Stage.delay = per_wire.Stage.delay;
    energy = float_of_int bits *. activity *. per_wire.Stage.energy;
    leakage = float_of_int bits *. tree_factor *. per_wire.Stage.leakage;
    area = float_of_int bits *. tree_factor *. per_wire.Stage.area;
  }
