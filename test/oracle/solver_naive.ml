(* The Section 2.4 solver written the slow, obvious way, as the reference
   that the fast sweep ([Cacti_array.Bank.enumerate_soa]) and the fused
   column selection ([Cacti.Optimizer.select_soa_result]) are tested
   against: classify every candidate of the partition grid on its own,
   evaluate every survivor from scratch, and run the staged selection over
   the resulting list.  No screen tree, no bounds, no memo, no pool, no
   columns.  [select_result] is the contract of [select_soa_result]: same
   winner, same [Error], same exceptions (hence the [Optimizer.]-prefixed
   messages). *)

open Cacti
open Cacti_array

(* ------------------- staged selection over a list ------------------- *)

let min_by f = function
  | [] -> invalid_arg "Optimizer.min_by: empty candidate list"
  | x :: rest ->
      (* A NaN key would compare false against everything and silently
         vanish from (or win) the minimization depending on list position;
         reject it loudly instead. *)
      let key y =
        let k = f y in
        if Float.is_nan k then invalid_arg "Optimizer.min_by: NaN key" else k
      in
      ignore (key x);
      List.fold_left (fun acc y -> if key y < f acc then y else acc) x rest

let safe_div x m = if m > 0. then x /. m else 1.

let objective ~weights ~norm (b : Bank.t) =
  let open Opt_params in
  let obj =
    (weights.w_dynamic *. safe_div b.Bank.e_read norm.Bank.e_read)
    +. (weights.w_leakage
       *. safe_div
            (b.Bank.p_leakage +. b.Bank.p_refresh)
            (norm.Bank.p_leakage +. norm.Bank.p_refresh))
    +. (weights.w_cycle
       *. safe_div b.Bank.t_random_cycle norm.Bank.t_random_cycle)
    +. (weights.w_interleave
       *. safe_div b.Bank.t_interleave norm.Bank.t_interleave)
  in
  if Float.is_nan obj then
    invalid_arg "Optimizer.objective: NaN objective (NaN metric or weight)"
  else obj

let norm_of candidates =
  let m f = List.fold_left (fun acc b -> min acc (f b)) Float.infinity candidates in
  let proto = List.hd candidates in
  {
    proto with
    Bank.e_read = m (fun b -> b.Bank.e_read);
    p_leakage = m (fun b -> b.Bank.p_leakage);
    p_refresh = m (fun b -> b.Bank.p_refresh);
    t_random_cycle = m (fun b -> b.Bank.t_random_cycle);
    t_interleave = m (fun b -> b.Bank.t_interleave);
  }

let select_result ?(what = "array") ~params candidates =
  let open Opt_params in
  match candidates with
  | [] ->
      Error
        (Printf.sprintf
           "%s: no valid organization in the enumerated design space" what)
  | _ ->
      let best_area = (min_by (fun b -> b.Bank.area) candidates).Bank.area in
      let within_area =
        List.filter
          (fun b -> b.Bank.area <= best_area *. (1. +. params.max_area_pct))
          candidates
      in
      let best_t =
        (min_by (fun b -> b.Bank.t_access) within_area).Bank.t_access
      in
      let within_t =
        List.filter
          (fun b -> b.Bank.t_access <= best_t *. (1. +. params.max_acctime_pct))
          within_area
      in
      let norm = norm_of within_t in
      Ok (min_by (objective ~weights:params.weights ~norm) within_t)

let select ?what ~params candidates =
  match select_result ?what ~params candidates with
  | Ok b -> b
  | Error msg -> raise (Optimizer.No_solution msg)

(* ---------------------------- the sweep ----------------------------- *)

(* The metric sanity rule of the production sweep: every metric the
   selection or a downstream model reads is a finite non-negative number. *)
let sane (b : Bank.t) =
  List.for_all
    (fun v -> Float.is_finite v && v >= 0.)
    [
      b.Bank.t_access; b.Bank.t_random_cycle; b.Bank.t_interleave;
      b.Bank.area; b.Bank.e_read; b.Bank.e_write; b.Bank.e_activate;
      b.Bank.e_precharge; b.Bank.p_leakage; b.Bank.p_refresh;
    ]

(* Every valid organization in [Org.candidates] order, plus the rejection
   histogram — what [Bank.enumerate_counts] must return when nothing is
   pruned. *)
let enumerate_counts ?max_ndwl ?max_ndbl (spec : Array_spec.t) =
  let dram = Cacti_tech.Cell.is_dram spec.Array_spec.ram in
  let candidates = Org.candidates ?max_ndwl ?max_ndbl ~dram () in
  let geometry = ref 0 and page = ref 0 and nonviable = ref 0 in
  let nonfinite = ref 0 and raised = ref 0 in
  let banks =
    List.filter_map
      (fun org ->
        match Mat.classify ~spec ~org with
        | Error `Geometry -> incr geometry; None
        | Error `Page -> incr page; None
        | Ok _ -> (
            match Bank.evaluate ~spec ~org with
            | None -> incr nonviable; None
            | Some b when sane b -> Some b
            | Some _ | (exception Cacti_util.Floatx.Non_finite _) ->
                incr nonfinite; None
            | exception _ -> incr raised; None))
      candidates
  in
  ( banks,
    {
      Cacti_util.Diag.candidates = List.length candidates;
      evaluated = List.length banks;
      geometry_rejected = !geometry;
      page_rejected = !page;
      area_pruned = 0;
      bound_pruned = 0;
      nonviable = !nonviable;
      nonfinite = !nonfinite;
      raised = !raised;
    } )

let enumerate ?max_ndwl ?max_ndbl spec =
  fst (enumerate_counts ?max_ndwl ?max_ndbl spec)

(* The bank the staged selection crowns over the whole design space —
   what [Solve_cache.select_bank] must return for the same inputs. *)
let select_bank ?max_ndwl ?max_ndbl ~params spec =
  select ~params (enumerate ?max_ndwl ?max_ndbl spec)
