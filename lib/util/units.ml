let nano = 1e-9
let milli = 1e-3

let to_ns x = x /. nano
let to_nj x = x /. nano
let to_mw x = x /. milli
let to_mm2 x = x /. 1e-6
let to_um2 x = x /. 1e-12

let pp_scaled units base ppf x =
  (* [units] are (suffix, magnitude) pairs in increasing magnitude order;
     pick the largest magnitude not exceeding |x| (or the smallest unit). *)
  let ax = Float.abs x in
  let rec pick = function
    | [] -> ("", base)
    | [ (s, m) ] -> (s, m)
    | (s, m) :: ((_, m') :: _ as rest) ->
        if ax < m' then (s, m) else pick rest
  in
  let suffix, magnitude = pick units in
  Format.fprintf ppf "%.4g %s" (x /. magnitude) suffix

let pp_time ppf x =
  pp_scaled
    [ ("ps", 1e-12); ("ns", 1e-9); ("us", 1e-6); ("ms", 1e-3); ("s", 1.0) ]
    1e-12 ppf x

let pp_area ppf x =
  if x < 1e-8 then Format.fprintf ppf "%.4g um^2" (to_um2 x)
  else Format.fprintf ppf "%.4g mm^2" (to_mm2 x)

let pp_energy ppf x =
  pp_scaled
    [ ("fJ", 1e-15); ("pJ", 1e-12); ("nJ", 1e-9); ("uJ", 1e-6); ("J", 1.0) ]
    1e-15 ppf x

let pp_power ppf x =
  pp_scaled
    [ ("nW", 1e-9); ("uW", 1e-6); ("mW", 1e-3); ("W", 1.0) ]
    1e-9 ppf x

let pp_bytes ppf n =
  let f = float_of_int n in
  if n < 1024 then Format.fprintf ppf "%d B" n
  else if n < 1024 * 1024 then Format.fprintf ppf "%.4g KB" (f /. 1024.)
  else if n < 1024 * 1024 * 1024 then
    Format.fprintf ppf "%.4g MB" (f /. 1024. /. 1024.)
  else Format.fprintf ppf "%.4g GB" (f /. 1024. /. 1024. /. 1024.)
