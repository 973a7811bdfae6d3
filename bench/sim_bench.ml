(* sim_bench: the simulator throughput benchmark that gates regressions.

     dune exec bench/sim_bench.exe -- --quick --jobs 2 \
       --out BENCH_sim.json --floor bench/sim_baseline.json

   Two sections:

   - engine: single-core throughput of [Engine.run] on a hand-built test
     machine (the same shape test/test_sim.ml uses, so CACTI solves stay
     out of the measurement).  Reports simulated MIPS, wall seconds, and
     minor-heap words allocated per instruction (best of three timed runs
     after a warmup).

   - study: the (app × config) matrix through [Study.run_all] at
     [--jobs 1] and [--jobs N], after an untimed build pass that warms
     the CACTI memo tables so only the simulations are timed.  Verifies
     the two runs are bit-identical (Stats.t and Energy.system compared
     structurally) — the determinism contract of the parallel fan-out.

   Results are written as JSON (schema in EXPERIMENTS.md).  With
   [--floor FILE] the run fails (exit 1) if measured MIPS drops more
   than 30% below the checked-in [mips_floor], or if the parallel study
   is not bit-identical to the serial one. *)

open Mcsim

let tiny_cache ~lines ~assoc ~latency : Machine.cache_params =
  {
    Machine.lines;
    assoc;
    latency;
    cycle = 1;
    e_read = 0.1e-9;
    e_write = 0.12e-9;
    p_leak = 0.01;
    p_refresh = 0.;
  }

let timing : Dram_sim.timing =
  Dram_sim.basic_timing ~t_rcd:24 ~t_cas:26 ~t_rp:12 ~t_rc:82 ~t_rrd:8
    ~t_burst:5 ~t_ctrl:20

let machine : Machine.t =
  {
    Machine.name = "bench";
    n_cores = 4;
    threads_per_core = 2;
    clock_hz = 2e9;
    l1 = tiny_cache ~lines:128 ~assoc:4 ~latency:2;
    l2 = tiny_cache ~lines:2048 ~assoc:8 ~latency:5;
    l3 =
      Some
        {
          Machine.bank = tiny_cache ~lines:16384 ~assoc:8 ~latency:6;
          n_banks = 4;
          xbar_latency = 3;
          e_xbar = 0.3e-9;
          p_xbar_leak = 0.05;
        };
    mem =
      {
        Machine.timing;
        policy = Dram_sim.Open_page;
        powerdown = None;
        n_channels = 2;
        n_banks = 8;
        n_chips_per_rank = 8;
        e_activate = 16e-9;
        e_read = 6e-9;
        e_write = 7e-9;
        p_standby = 0.7;
        p_refresh = 0.08;
        bus_mw_per_gbps = 2.0;
        line_transfer_gbits = 512e-9;
      };
    core_power = 10.;
    instr_per_fetch_line = 8;
  }

let bench_app : Workload.app =
  {
    Workload.name = "bench";
    mem_ratio = 0.3;
    fp_ratio = 0.3;
    write_ratio = 0.3;
    regions =
      [
        {
          Workload.rname = "hot";
          size_bytes = 64 * 1024;
          pattern = Workload.Random_burst 4;
          sharing = Workload.Shared;
          weight = 0.7;
          wr_scale = 1.0;
        };
        {
          Workload.rname = "big";
          size_bytes = 16 * 1024 * 1024;
          pattern = Workload.Stream;
          sharing = Workload.Private_slice;
          weight = 0.3;
          wr_scale = 1.0;
        };
      ];
    barrier_interval = 20_000;
    lock_interval = 20_000;
    lock_hold = 100;
    n_locks = 4;
  }

(* ------------------------- engine section ------------------------- *)

type engine_result = {
  instructions : int;
  wall_s : float;
  mips : float;
  minor_words_per_instr : float;
}

let bench_engine ~instructions =
  let params = { Engine.default_params with total_instructions = instructions } in
  let once () =
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    let st = Engine.run ~params machine bench_app in
    let wall = Unix.gettimeofday () -. t0 in
    let words = Gc.minor_words () -. w0 in
    (st, wall, words)
  in
  ignore (once ());
  (* warmup *)
  let best = ref infinity and words = ref 0. in
  for _ = 1 to 3 do
    let _, wall, w = once () in
    if wall < !best then best := wall;
    words := w
  done;
  let fi = float_of_int instructions in
  {
    instructions;
    wall_s = !best;
    mips = fi /. !best /. 1e6;
    minor_words_per_instr = !words /. fi;
  }

(* ------------------------- study section -------------------------- *)

type study_result = {
  cells : int;
  instructions_per_cell : int;
  wall_s_jobs1 : float;
  wall_s_jobsn : float;
  speedup : float;
  identical : bool;
}

let bench_study ~quick ~jobs =
  let kinds, apps, instr =
    if quick then
      ( [ Study.No_l3; Study.Sram_l3; Study.Cm_dram_c ],
        [ Apps.lu_c; Apps.cg_c ],
        2_000_000 )
    else (Study.all_kinds, Apps.all, 8_000_000)
  in
  let params = { Engine.default_params with total_instructions = instr } in
  (* Untimed build pass: warm the CACTI memo tables so both timed runs
     measure only the simulations. *)
  List.iter (fun k -> ignore (Study.build ~jobs k)) kinds;
  let run jobs =
    let t0 = Unix.gettimeofday () in
    let r = Study.run_all ~jobs ~params ~kinds ~apps () in
    (r, Unix.gettimeofday () -. t0)
  in
  let r1, w1 = run 1 in
  let rn, wn = run jobs in
  let identical =
    List.length r1 = List.length rn
    && List.for_all2
         (fun (a : Study.app_result) (b : Study.app_result) ->
           a.Study.stats = b.Study.stats && a.Study.sys = b.Study.sys)
         r1 rn
  in
  {
    cells = List.length r1;
    instructions_per_cell = instr;
    wall_s_jobs1 = w1;
    wall_s_jobsn = wn;
    speedup = w1 /. wn;
    identical;
  }

(* ------------------------------ JSON ------------------------------ *)

(* The numeric field [key] of the baseline file [path]; exits 1 when the
   file is not JSON. *)
let baseline_field path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  match Cacti_util.Jsonx.parse text with
  | Ok json ->
      fun key ->
        Option.bind (Cacti_util.Jsonx.member key json)
          Cacti_util.Jsonx.get_float
  | Error e ->
      Printf.eprintf "%s: %s\n" path e;
      exit 1

let write_json path ~quick ~jobs (e : engine_result) (s : study_result)
    baseline =
  let oc = open_out path in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"schema_version\": 1,\n";
  Printf.fprintf oc "  \"quick\": %b,\n" quick;
  Printf.fprintf oc "  \"jobs\": %d,\n" jobs;
  Printf.fprintf oc
    "  \"engine\": { \"instructions\": %d, \"wall_s\": %.4f, \"mips\": %.2f, \
     \"minor_words_per_instr\": %.3f },\n"
    e.instructions e.wall_s e.mips e.minor_words_per_instr;
  Printf.fprintf oc
    "  \"study\": { \"cells\": %d, \"instructions_per_cell\": %d, \
     \"wall_s_jobs1\": %.4f, \"wall_s_jobsn\": %.4f, \"speedup\": %.2f, \
     \"identical\": %b }"
    s.cells s.instructions_per_cell s.wall_s_jobs1 s.wall_s_jobsn s.speedup
    s.identical;
  (match baseline with
  | None -> Printf.fprintf oc "\n"
  | Some (base_mips, base_words, floor) ->
      Printf.fprintf oc
        ",\n\
        \  \"baseline\": { \"mips\": %.2f, \"minor_words_per_instr\": %.3f, \
         \"mips_floor\": %.2f },\n\
        \  \"mips_vs_baseline\": %.2f\n"
        base_mips base_words floor (e.mips /. base_mips));
  Printf.fprintf oc "}\n";
  close_out oc

(* ------------------------------ main ------------------------------ *)

let usage () =
  print_endline
    "usage: bench/sim_bench.exe [--quick] [--jobs N] [--instructions N] \
     [--out FILE] [--floor FILE]";
  print_endline "--quick: 1M-instruction engine run, 3x2 study matrix at 2M";
  print_endline
    "--floor FILE: read mips_floor from FILE and fail if measured MIPS \
     drops more than 30% below it (or if the parallel study is not \
     bit-identical to the serial one)"

let () =
  let quick = ref false in
  let jobs = ref (Cacti_util.Pool.default_jobs ()) in
  let instructions = ref 0 in
  let out = ref "BENCH_sim.json" in
  let floor_file = ref None in
  let int_arg flag s =
    match int_of_string_opt s with
    | Some v when v > 0 -> v
    | _ ->
        Printf.eprintf "%s expects a positive integer, got %S\n" flag s;
        exit 1
  in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
        quick := true;
        parse rest
    | "--jobs" :: n :: rest ->
        jobs := int_arg "--jobs" n;
        parse rest
    | "--instructions" :: n :: rest ->
        instructions := int_arg "--instructions" n;
        parse rest
    | "--out" :: f :: rest ->
        out := f;
        parse rest
    | "--floor" :: f :: rest ->
        floor_file := Some f;
        parse rest
    | ("--help" | "-h") :: _ ->
        usage ();
        exit 0
    | arg :: _ ->
        Printf.eprintf "unknown argument %S\n" arg;
        usage ();
        exit 1
  in
  parse (List.tl (Array.to_list Sys.argv));
  let instructions =
    if !instructions > 0 then !instructions
    else if !quick then 1_000_000
    else 4_000_000
  in
  Printf.printf "engine: %d Minstr on the hand-built test machine...\n%!"
    (instructions / 1_000_000);
  let e = bench_engine ~instructions in
  Printf.printf
    "engine: %.2f simulated MIPS, %.3fs wall, %.3f minor words/instr\n%!"
    e.mips e.wall_s e.minor_words_per_instr;
  Printf.printf "study: %s matrix, jobs=1 vs jobs=%d...\n%!"
    (if !quick then "3 configs x 2 apps" else "6 configs x 8 apps")
    !jobs;
  let s = bench_study ~quick:!quick ~jobs:!jobs in
  Printf.printf
    "study: %d cells, %.3fs at jobs=1 vs %.3fs at jobs=%d (%.2fx), %s\n%!"
    s.cells s.wall_s_jobs1 s.wall_s_jobsn !jobs s.speedup
    (if s.identical then "bit-identical" else "RESULTS DIFFER");
  let baseline =
    match !floor_file with
    | None -> None
    | Some f -> (
        let get = baseline_field f in
        match (get "mips", get "minor_words_per_instr", get "mips_floor")
        with
        | Some m, Some w, Some fl -> Some (m, w, fl)
        | _ ->
            Printf.eprintf
              "%s: missing mips / minor_words_per_instr / mips_floor\n" f;
            exit 1)
  in
  write_json !out ~quick:!quick ~jobs:!jobs e s baseline;
  Printf.printf "wrote %s\n%!" !out;
  let failed = ref false in
  if not s.identical then begin
    Printf.eprintf
      "FAIL: parallel study results differ from the serial run\n";
    failed := true
  end;
  (match baseline with
  | Some (base_mips, _, floor) ->
      Printf.printf "baseline: %.2f MIPS (floor %.2f); this run %.2fx\n%!"
        base_mips floor (e.mips /. base_mips);
      if e.mips < 0.7 *. floor then begin
        Printf.eprintf
          "FAIL: %.2f MIPS is more than 30%% below the floor of %.2f\n"
          e.mips floor;
        failed := true
      end
  | None -> ());
  if !failed then exit 1
