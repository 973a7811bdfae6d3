open Cacti_array

exception No_solution of string

let safe_div x m = if m > 0. then x /. m else 1.

(* The staged selection of Section 2.4 run over a sweep's metric
   columns, without materializing candidate records: max-area filter,
   then max-access-time filter, then the weighted objective normalized by
   the per-metric minima of the survivors.  It crowns exactly the bank
   the list-based reference in test/oracle/solver_naive.ml picks from the
   materialized sweep: the filters and argmins read the very float64
   column values the records are built from, the ascending-index scans
   with strict [<] keep the earliest candidate on ties, and the NaN
   guards raise the same exceptions at the same points. *)
let select_soa_result ?(what = "array") ~params (soa : Soa_kernel.t) =
  let open Opt_params in
  let n = soa.Soa_kernel.n in
  let ok i = Bytes.get soa.Soa_kernel.status i = Soa_kernel.st_ok in
  let area = Soa_kernel.col_area soa in
  let t_access = Soa_kernel.col_t_access soa in
  let t_random_cycle = Soa_kernel.col_t_random_cycle soa in
  let t_interleave = Soa_kernel.col_t_interleave soa in
  let e_read = Soa_kernel.col_e_read soa in
  let p_leakage = Soa_kernel.col_p_leakage soa in
  let p_refresh = Soa_kernel.col_p_refresh soa in
  (* The minimum of [key] over the candidates passing [pass]; a NaN key
     or an empty set is an error rather than a silent pick. *)
  let min_key pass (key : Soa_kernel.col) =
    let best = ref Float.nan and found = ref false in
    for i = 0 to n - 1 do
      if ok i && pass i then begin
        let k = key.{i} in
        if Float.is_nan k then invalid_arg "Optimizer.min_by: NaN key";
        if (not !found) || k < !best then begin
          best := k;
          found := true
        end
      end
    done;
    if not !found then invalid_arg "Optimizer.min_by: empty candidate list";
    !best
  in
  let any_ok = ref false in
  for i = 0 to n - 1 do
    if ok i then any_ok := true
  done;
  if not !any_ok then
    Error
      (Printf.sprintf "%s: no valid organization in the enumerated design space"
         what)
  else begin
    let best_area = min_key (fun _ -> true) area in
    let in_area i = area.{i} <= best_area *. (1. +. params.max_area_pct) in
    let best_t = min_key in_area t_access in
    let in_t i =
      in_area i && t_access.{i} <= best_t *. (1. +. params.max_acctime_pct)
    in
    let any_t = ref false in
    for i = 0 to n - 1 do
      if ok i && in_t i then any_t := true
    done;
    (* Unreachable for validated parameters (the access-time argmin always
       passes its own filter); fails as the list reference does. *)
    if not !any_t then failwith "hd";
    let col_min (c : Soa_kernel.col) =
      let acc = ref Float.infinity in
      for i = 0 to n - 1 do
        if ok i && in_t i then acc := Cacti_util.Floatx.min !acc c.{i}
      done;
      !acc
    in
    let norm_e_read = col_min e_read in
    let norm_p_leak = col_min p_leakage +. col_min p_refresh in
    let norm_t_cycle = col_min t_random_cycle in
    let norm_t_il = col_min t_interleave in
    let w = params.weights in
    let obj i =
      let o =
        (w.w_dynamic *. safe_div e_read.{i} norm_e_read)
        +. (w.w_leakage
           *. safe_div (p_leakage.{i} +. p_refresh.{i}) norm_p_leak)
        +. (w.w_cycle *. safe_div t_random_cycle.{i} norm_t_cycle)
        +. (w.w_interleave *. safe_div t_interleave.{i} norm_t_il)
      in
      if Float.is_nan o then
        invalid_arg "Optimizer.objective: NaN objective (NaN metric or weight)"
      else o
    in
    let best = ref (-1) and best_obj = ref Float.nan in
    for i = 0 to n - 1 do
      if ok i && in_t i then begin
        let o = obj i in
        if !best < 0 || o < !best_obj then begin
          best := i;
          best_obj := o
        end
      end
    done;
    Ok !best
  end
