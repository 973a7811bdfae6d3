let optimal_stage_effort = 4.0

let n_stages ~path_effort =
  if path_effort <= 1. then 1
  else
    Int.max 1
      (int_of_float (Float.round (log path_effort /. log optimal_stage_effort)))

let stage_effort ~path_effort ~n =
  if path_effort <= 1. then 1.0 else path_effort ** (1. /. float_of_int n)
