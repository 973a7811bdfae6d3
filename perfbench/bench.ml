(* One workload per process, single domain.  Prints a human table, a
   report line with the host fingerprint, and, as the last line of
   standard output, the result object:
     {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
   Usage (run.py builds the program and passes these through):
     bench.exe --workload W [--seed N] [--seconds S] [--trace 0|1]
               [--bless] [--build-flags F]
   Run from the root of the checkout: scratch files go to .perfbench_work/
   and the blessed digests are perfbench/digests.json. *)

open Perfbench
module Jsonx = Cacti_util.Jsonx

let workloads =
  [
    ("solve_batch", (W_solve.run, [ "solve_batch/" ]));
    ("llc_study", (W_study.run, [ "llc_study/" ]));
    ("replay_csv", (W_replay.run ~csv:true, [ "replay/" ]));
    ("replay_summary", (W_replay.run ~csv:false, [ "replay/" ]));
  ]

let usage () =
  prerr_endline
    "usage: bench.exe --workload solve_batch|llc_study|replay_csv|replay_summary \
     [--seed N] [--seconds S] [--trace 0|1] [--bless] [--build-flags FLAGS]";
  exit 2

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let mkdir_p dir =
  let rec go d =
    if not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  go dir

let work_dir = ".perfbench_work"
let digests = Filename.concat "perfbench" "digests.json"

let metric value unit = Jsonx.Obj [ ("value", Jsonx.num value); ("unit", Jsonx.String unit) ]

let () =
  let workload = ref "" and seed = ref Check.default_seed and seconds = ref 20.
  and trace = ref 0 and bless = ref false and build_flags = ref "" in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: (("0" | "1") as v) :: rest -> trace := int_of_string v; parse rest
    | "--bless" :: rest -> bless := true; parse rest
    | "--build-flags" :: v :: rest -> build_flags := v; parse rest
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let run, prefixes =
    match List.assoc_opt !workload workloads with Some w -> w | None -> usage ()
  in
  if !bless && (!seed <> Check.default_seed || !trace <> 0) then begin
    prerr_endline "bench: --bless records the default seed, untraced";
    exit 2
  end;
  let dir = Filename.concat work_dir (Printf.sprintf "%s-%d" !workload (Unix.getpid ())) in
  mkdir_p dir;
  let blessed =
    if !bless || !seed <> Check.default_seed then None else Some (Check.load digests)
  in
  let ctx =
    {
      Ctx.seed = !seed;
      seconds = !seconds;
      traced = !trace = 1;
      bless = !bless;
      dir;
      check = Check.create ~blessed;
      spans = Harness.Spans.create ();
    }
  in
  let t0 = Harness.now_ns () in
  let o = Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> run ctx) in
  let elapsed = Harness.s_of_ns (Harness.now_ns () - t0) in
  let peak = Harness.peak_rss_mb () in
  let ops = Harness.Fvec.to_array o.Ctx.ops in
  let n_ops = Array.length ops in
  let chk = ctx.check in
  let tail_p, tail_s =
    match Harness.tail ops with
    | Some t -> t
    | None -> (100., Array.fold_left Float.max 0. ops)
  in
  let e2e =
    [
      ("setup_s", Harness.median o.setup, "s");
      ("work_per_s", Ctx.ratio o.work (Harness.Fvec.sum o.ops), "1/s");
      ("op_p50_ms", Harness.median ops *. 1e3, "ms");
      ("op_tail_ms", tail_s *. 1e3, "ms");
      ("peak_rss_mb", peak, "MB");
    ]
  in
  let layers =
    List.map
      (fun (name, unit) -> (name, Option.value (List.assoc_opt name o.layers) ~default:0., unit))
      Ctx.per_layer
  in
  let shown = if ctx.traced then layers else e2e in
  (* Human table. *)
  Printf.printf "%s  seed %d  %s  %d ops in %.1f s  (work unit: %s)\n" !workload !seed
    (if ctx.traced then "traced" else "untraced")
    n_ops elapsed o.work_unit;
  List.iter
    (fun (name, v, unit) ->
      let extra =
        if name = "op_tail_ms" then Printf.sprintf "  (p%g of %d ops)" tail_p n_ops else ""
      in
      Printf.printf "  %-42s %14.6g %s%s\n" name v unit extra)
    shown;
  Printf.printf "  %-42s %14.6g 1  (%d failed / %d attempted)\n" "fail_ratio"
    (Ctx.ratio (float_of_int chk.failed) (float_of_int chk.attempted))
    chk.failed chk.attempted;
  List.iter
    (fun (layer, share) ->
      Printf.printf "  dominance: %s takes %.1f%% of op time (floor 75%%)\n" layer (100. *. share))
    o.dominance;
  (match List.assoc_opt "layers.coverage_ratio" o.layers with
  | Some c when ctx.traced ->
      Printf.printf "  coverage %.4f, tolerance [%g, %g]: %s\n" c Ctx.coverage_lo Ctx.coverage_hi
        (if c >= Ctx.coverage_lo && c <= Ctx.coverage_hi then "ok" else "OUTSIDE")
  | _ -> ());
  (* Report: host fingerprint and everything needed to read the numbers. *)
  let report =
    Jsonx.Obj
      [
        ("workload", Jsonx.String !workload);
        ("seed", Jsonx.Int !seed);
        ("traced", Jsonx.Bool ctx.traced);
        ( "host",
          Jsonx.Obj
            [
              ("nproc", Jsonx.Int (Domain.recommended_domain_count ()));
              ("ocaml", Jsonx.String Sys.ocaml_version);
              ("profile", Jsonx.String Build_info.profile);
              ("ocamlopt_flags", Jsonx.String !build_flags);
            ] );
        ("inputs", Jsonx.Obj o.inputs);
        ("ops", Jsonx.Int n_ops);
        ("work", Jsonx.num o.work);
        ("work_unit", Jsonx.String o.work_unit);
        ("elapsed_s", Jsonx.num elapsed);
        ("setup_samples_s", Jsonx.List (Array.to_list (Array.map Jsonx.num o.setup)));
        ("op_tail_percentile", Jsonx.num tail_p);
        ("fail_ratio", Jsonx.num (Ctx.ratio (float_of_int chk.failed) (float_of_int chk.attempted)));
        ( "dominance",
          Jsonx.Obj (List.map (fun (l, s) -> (l, Jsonx.num s)) o.dominance) );
        ("metrics", Jsonx.Obj (List.map (fun (n, v, u) -> (n, metric v u)) shown));
      ]
  in
  let tag = Printf.sprintf "%s-seed%d-trace%d" !workload !seed !trace in
  Out_channel.with_open_bin
    (Filename.concat work_dir ("report-" ^ tag ^ ".json"))
    (fun oc -> output_string oc (Jsonx.to_string_pretty report ^ "\n"));
  if ctx.traced then
    Harness.Spans.write_csv ctx.spans (Filename.concat work_dir ("spans-" ^ tag ^ ".csv"));
  print_endline ("report: " ^ Jsonx.to_string report);
  if !bless then ignore (Check.bless digests ~prefixes chk.recorded : int);
  let result =
    Jsonx.Obj
      [
        ("correct", Jsonx.Bool (chk.failed = 0 && chk.attempted > 0));
        ("attempted", Jsonx.Int chk.attempted);
        ("failed", Jsonx.Int chk.failed);
        ("metrics", Jsonx.Obj (List.map (fun (n, v, u) -> (n, metric v u)) shown));
      ]
  in
  print_endline (Jsonx.to_string result)
