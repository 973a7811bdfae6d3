exception Non_finite of string

let finite_pos ~what x =
  if Float.is_finite x && x >= 0. then x
  else raise (Non_finite (Printf.sprintf "%s is %h" what x))

let clog2 n =
  assert (n > 0);
  let rec go acc v = if v >= n then acc else go (acc + 1) (v * 2) in
  go 0 1

let is_pow2 n = n > 0 && n land (n - 1) = 0

let pow2_ge n =
  assert (n > 0);
  let rec go v = if v >= n then v else go (v * 2) in
  go 1

let clamp ~lo ~hi x = if x < lo then lo else if x > hi then hi else x

let rel_err ~actual ~model =
  if actual = 0. then if model = 0. then 0. else Float.infinity
  else (model -. actual) /. actual

let sum = List.fold_left ( +. ) 0.

let mean = function
  | [] -> invalid_arg "Floatx.mean: empty"
  | l -> sum l /. float_of_int (List.length l)
