let delay ~input_ramp ~tf ~v_th_fraction =
  let vs = Cacti_util.Floatx.clamp ~lo:0.05 ~hi:0.95 v_th_fraction in
  if input_ramp <= 0. then tf *. sqrt (log vs *. log vs)
  else
    let a = input_ramp /. tf in
    let b = 0.5 in
    tf *. sqrt ((log vs *. log vs) +. (2. *. a *. b *. (1. -. vs)))

let output_ramp ~tf = 2. *. tf
