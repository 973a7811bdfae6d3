(* solve_bench: the analytical-solver throughput benchmark that gates
   regressions on the staged solver kernel.

     dune exec bench/solve_bench.exe -- --quick \
       --out BENCH_solve.json --floor bench/solve_baseline.json

   The workload is a fixed batch of seven representative solves: six
   caches spanning SRAM / LP-DRAM / COMM-DRAM, 32 KB to 8 MB, two
   technology nodes, plus a 1 Gb main-memory chip (whose sweep runs the
   enlarged 128x256 partition grid).  Three sections:

   - cold: [Solve_cache.clear] then the whole batch at jobs=1, timing
     every solve individually.  Best-of-[reps] total wall time gives the
     headline solves/s; the pooled per-solve latencies give p50/p99.
     The sweep histograms of one cold batch are accumulated and the
     counts partition (candidates = evaluated + rejected + pruned +
     faulted) is asserted, so the report proves where every candidate
     went.

   - warm: the same batch re-solved without clearing — every solve is a
     memo hit, measuring the solve-table lookup path.

   - identity: the batch on shared warm tables at jobs=1 must select
     bit-identical solutions to the batch from cold tables at jobs=2,
     and to each solve run alone from empty tables ([Solve_cache.clear]
     before every solve) — the check that no memo entry one spec leaves
     behind can change another spec's solution.  Solutions are compared
     with [compare], not [=]: they can carry NaN-valued fields, e.g.
     unbounded DRAM timings.  Whether the sweep itself picks the right
     bank is pinned by the naive reference solver in test/oracle, over
     this same batch, under [dune runtest].

   - incremental: a cache re-solved after perturbing one spec axis
     (capacity, then technology) must match the same solve from a cold
     start, and the screen-context counters must show the re-solves
     actually took the incremental path (rows-only and full reuse).

   - allocation and retention: minor words allocated, and words the
     minor GC promoted to the major heap, per evaluated candidate over
     one cold batch, gated against [minor_words_per_evaluated_ceiling]
     and [promoted_words_per_evaluated_ceiling] when the floor file
     carries them.  Both are deterministic counts: a leak into the
     kernel's per-candidate loop, or a sweep that keeps per-candidate
     values alive past the minor heap, fails the run even when wall clock
     hides it.

   Results are written as JSON (schema in EXPERIMENTS.md).  With
   [--floor FILE] the run fails (exit 1) if cold solves/s drops more
   than 30% below the checked-in [cold_solves_per_s_floor], if either
   ceiling is exceeded, or if any identity or partition check fails. *)

let fail fmt = Printf.ksprintf failwith fmt

let diag_fail ds = failwith (Cacti_util.Diag.render ds)

(* ------------------------------ batch ----------------------------- *)

let t32 = Cacti_tech.Technology.at_nm 32.
let t45 = Cacti_tech.Technology.at_nm 45.
let t78 = Cacti_tech.Technology.at_nm 78.

let cache_specs =
  [
    Cacti.Cache_spec.create ~tech:t32 ~capacity_bytes:(32 * 1024) ~assoc:4 ();
    Cacti.Cache_spec.create ~tech:t32 ~capacity_bytes:(1024 * 1024) ~assoc:8 ();
    Cacti.Cache_spec.create ~tech:t32
      ~capacity_bytes:(8 * 1024 * 1024)
      ~assoc:16 ();
    Cacti.Cache_spec.create ~tech:t32
      ~capacity_bytes:(8 * 1024 * 1024)
      ~assoc:16 ~ram:Cacti_tech.Cell.Lp_dram ();
    Cacti.Cache_spec.create ~tech:t32
      ~capacity_bytes:(8 * 1024 * 1024)
      ~assoc:16 ~ram:Cacti_tech.Cell.Comm_dram ();
    Cacti.Cache_spec.create ~tech:t45 ~capacity_bytes:(512 * 1024) ~assoc:8 ();
  ]

let mainmem_chip =
  Cacti.Mainmem.create ~tech:t78
    ~capacity_bits:(1024 * 1024 * 1024 * 8)
    ()

let batch_solves = List.length cache_specs + 1

let solve_cache ~jobs spec =
  match Cacti.Cache_model.solve_diag ~jobs spec with
  | Ok (c, s) -> (c, s)
  | Error ds -> diag_fail ds

let solve_caches ~jobs () = List.map (solve_cache ~jobs) cache_specs

let solve_mainmem ~jobs () =
  match Cacti.Mainmem.solve_diag ~jobs mainmem_chip with
  | Ok (m, s) -> (m, s)
  | Error ds -> diag_fail ds

(* ------------------------------ cold ------------------------------ *)

type cold_result = {
  wall_s : float;  (** best batch total over [reps] *)
  solves_per_s : float;
  p50_ms : float;  (** per-solve latency, pooled over all cold reps *)
  p99_ms : float;
  counts : Cacti_util.Diag.counts;  (** accumulated over one cold batch *)
  minor_words_per_evaluated : float;
      (** minor-heap words allocated per evaluated candidate over the
          counted cold batch *)
  promoted_words_per_evaluated : float;
      (** words promoted from the minor to the major heap per evaluated
          candidate over the counted cold batch *)
}

let percentile sorted p =
  let n = Array.length sorted in
  let i = int_of_float (ceil (p *. float_of_int n)) - 1 in
  sorted.(max 0 (min (n - 1) i))

let bench_cold ~reps =
  let lats = ref [] in
  let counts = ref Cacti_util.Diag.zero_counts in
  let minor_words = ref 0. and promoted_words = ref 0. in
  let promoted () = (Gc.quick_stat ()).Gc.promoted_words in
  let one_batch ~record_counts =
    Cacti.Solve_cache.clear ();
    let words0 = Gc.minor_words () and promoted0 = promoted () in
    let total = ref 0. in
    let timed f =
      let t0 = Unix.gettimeofday () in
      let _, (s : Cacti_util.Diag.summary) = f () in
      let d = Unix.gettimeofday () -. t0 in
      total := !total +. d;
      lats := d :: !lats;
      if record_counts then
        counts := Cacti_util.Diag.add_counts !counts s.Cacti_util.Diag.sweeps
    in
    List.iter
      (fun spec -> timed (fun () -> solve_cache ~jobs:1 spec))
      cache_specs;
    timed (fun () -> solve_mainmem ~jobs:1 ());
    if record_counts then begin
      minor_words := Gc.minor_words () -. words0;
      promoted_words := promoted () -. promoted0
    end;
    !total
  in
  ignore (one_batch ~record_counts:false);
  (* warmup *)
  lats := [];
  let best = ref infinity in
  for rep = 1 to reps do
    let w = one_batch ~record_counts:(rep = 1) in
    if w < !best then best := w
  done;
  let sorted = Array.of_list !lats in
  Array.sort compare sorted;
  let per_evaluated words =
    let ev = !counts.Cacti_util.Diag.evaluated in
    if ev = 0 then 0. else words /. float_of_int ev
  in
  {
    wall_s = !best;
    solves_per_s = float_of_int batch_solves /. !best;
    p50_ms = 1e3 *. percentile sorted 0.50;
    p99_ms = 1e3 *. percentile sorted 0.99;
    counts = !counts;
    minor_words_per_evaluated = per_evaluated !minor_words;
    promoted_words_per_evaluated = per_evaluated !promoted_words;
  }

(* ------------------------------ warm ------------------------------ *)

type warm_result = { wall_s_per_batch : float; warm_solves_per_s : float }

let bench_warm ~reps =
  (* The table is warm from the cold section's last batch. *)
  let t0 = Unix.gettimeofday () in
  for _ = 1 to reps do
    ignore (solve_caches ~jobs:1 ());
    ignore (solve_mainmem ~jobs:1 ())
  done;
  let per_batch = (Unix.gettimeofday () -. t0) /. float_of_int reps in
  {
    wall_s_per_batch = per_batch;
    warm_solves_per_s = float_of_int batch_solves /. per_batch;
  }

(* ---------------------------- identity ---------------------------- *)

(* [compare], not [=]: Bank.t carries NaN-valued fields (e.g. unbounded
   DRAM timings) on which polymorphic [=] is false even for bit-identical
   records. *)
let same a b = compare a b = 0

type identity_result = {
  jobs_identical : bool;  (** warm jobs=1 batch vs cold jobs=2 batch *)
  memo_identical : bool;
      (** shared-table batch vs every solve alone from empty tables *)
}

let check_identity () =
  (* The tables are warm from the cold and warm sections: this batch
     answers from entries the whole batch left behind. *)
  let c1 = List.map fst (solve_caches ~jobs:1 ()) in
  let m1 = fst (solve_mainmem ~jobs:1 ()) in
  Cacti.Solve_cache.clear ();
  let c2 = List.map fst (solve_caches ~jobs:2 ()) in
  let m2 = fst (solve_mainmem ~jobs:2 ()) in
  let jobs_identical = List.for_all2 same c1 c2 && same m1 m2 in
  let alone solve =
    Cacti.Solve_cache.clear ();
    fst (solve ())
  in
  let ca =
    List.map (fun spec -> alone (fun () -> solve_cache ~jobs:1 spec))
      cache_specs
  in
  let ma = alone (solve_mainmem ~jobs:1) in
  let memo_identical = List.for_all2 same c1 ca && same m1 ma in
  { jobs_identical; memo_identical }

(* --------------------------- incremental --------------------------- *)

type incremental_result = {
  inc_identical : bool;
      (** perturbed re-solves match the same solves from a cold start *)
  inc_rows_hit : bool;  (** the size perturbation reused the screen tree *)
  inc_full_hit : bool;  (** the tech perturbation reused the survivors *)
  inc_stats : Cacti.Solve_cache.incremental;
      (** counters after the perturbed sequence (before the cold controls) *)
}

(* Solve a base cache, then re-solve with one axis perturbed — capacity
   (row count changes, shape does not: the screen tree is re-instantiated)
   and technology (the arithmetic screen never reads it: survivors are
   reused outright).  Each perturbed solution must equal the one a cold
   start produces, and the counters must show the reuse happened. *)
let check_incremental () =
  let base =
    Cacti.Cache_spec.create ~tech:t32 ~capacity_bytes:(1024 * 1024) ~assoc:8 ()
  in
  let size_perturbed =
    Cacti.Cache_spec.create ~tech:t32 ~capacity_bytes:(2 * 1024 * 1024)
      ~assoc:8 ()
  in
  let tech_perturbed =
    Cacti.Cache_spec.create ~tech:t45 ~capacity_bytes:(1024 * 1024) ~assoc:8 ()
  in
  let solve spec =
    match Cacti.Cache_model.solve_diag ~jobs:1 spec with
    | Ok (c, _) -> c
    | Error ds -> diag_fail ds
  in
  Cacti.Solve_cache.clear ();
  ignore (solve base);
  let i0 = Cacti.Solve_cache.incremental_stats () in
  let warm_size = solve size_perturbed in
  let i1 = Cacti.Solve_cache.incremental_stats () in
  let warm_tech = solve tech_perturbed in
  let i2 = Cacti.Solve_cache.incremental_stats () in
  let inc_rows_hit =
    i1.Cacti.Solve_cache.rows_hits > i0.Cacti.Solve_cache.rows_hits
  in
  let inc_full_hit =
    i2.Cacti.Solve_cache.full_hits > i1.Cacti.Solve_cache.full_hits
  in
  Cacti.Solve_cache.clear ();
  let cold_size = solve size_perturbed in
  Cacti.Solve_cache.clear ();
  let cold_tech = solve tech_perturbed in
  {
    inc_identical = same warm_size cold_size && same warm_tech cold_tech;
    inc_rows_hit;
    inc_full_hit;
    inc_stats = i2;
  }

(* ------------------------------ JSON ------------------------------ *)

type baseline = {
  floor : float;  (** checked-in cold solves/s floor *)
  alloc_ceiling : float option;
      (** checked-in minor-words-per-evaluated-candidate ceiling *)
  retain_ceiling : float option;
      (** checked-in promoted-words-per-evaluated-candidate ceiling *)
}

let counts_json (c : Cacti_util.Diag.counts) ~partition_ok =
  let f k v = (k, Cacti_util.Jsonx.Int v) in
  Cacti_util.Jsonx.Obj
    [
      f "candidates" c.Cacti_util.Diag.candidates;
      f "evaluated" c.Cacti_util.Diag.evaluated;
      f "geometry_rejected" c.Cacti_util.Diag.geometry_rejected;
      f "page_rejected" c.Cacti_util.Diag.page_rejected;
      f "area_pruned" c.Cacti_util.Diag.area_pruned;
      f "bound_pruned" c.Cacti_util.Diag.bound_pruned;
      f "nonviable" c.Cacti_util.Diag.nonviable;
      f "nonfinite" c.Cacti_util.Diag.nonfinite;
      f "raised" c.Cacti_util.Diag.raised;
      ("partition_ok", Cacti_util.Jsonx.Bool partition_ok);
    ]

(* A ceiling and this run's ratio to it, when the floor file has one. *)
let ceiling_json what ceiling measured =
  match ceiling with
  | None -> []
  | Some ceil ->
      [
        (what ^ "_per_evaluated_ceiling", Cacti_util.Jsonx.num ceil);
        (what ^ "_vs_ceiling", Cacti_util.Jsonx.num (measured /. ceil));
      ]

let write_json path ~quick ~partition_ok (c : cold_result) (w : warm_result)
    (i : identity_result) (inc : incremental_result) baseline =
  let open Cacti_util.Jsonx in
  let istats = inc.inc_stats in
  let fields =
    [
      ("schema_version", Int 4);
      ("quick", Bool quick);
      ("batch_solves", Int batch_solves);
      ( "cold",
        Obj
          [
            ("wall_s", num c.wall_s);
            ("solves_per_s", num c.solves_per_s);
            ("p50_ms", num c.p50_ms);
            ("p99_ms", num c.p99_ms);
          ] );
      ( "kernel",
        Obj
          [
            ("minor_words_per_evaluated", num c.minor_words_per_evaluated);
            ("promoted_words_per_evaluated", num c.promoted_words_per_evaluated);
          ] );
      ( "incremental",
        Obj
          [
            ("identical_to_cold", Bool inc.inc_identical);
            ("rows_reuse_observed", Bool inc.inc_rows_hit);
            ("full_reuse_observed", Bool inc.inc_full_hit);
            ("full_hits", Int istats.Cacti.Solve_cache.full_hits);
            ("rows_hits", Int istats.Cacti.Solve_cache.rows_hits);
            ("misses", Int istats.Cacti.Solve_cache.misses);
          ] );
      ( "warm",
        Obj
          [
            ("wall_s_per_batch", num w.wall_s_per_batch);
            ("solves_per_s", num w.warm_solves_per_s);
          ] );
      ("sweep", counts_json c.counts ~partition_ok);
      ( "identity",
        Obj
          [
            ("jobs_identical", Bool i.jobs_identical);
            ("memo_identical", Bool i.memo_identical);
          ] );
    ]
  in
  let fields =
    fields
    @
    match baseline with
    | None -> []
    | Some b ->
        [
          ( "baseline",
            Obj
              ([
                 ("cold_solves_per_s_floor", num b.floor);
                 ("cold_vs_floor", num (c.solves_per_s /. b.floor));
               ]
              @ ceiling_json "minor_words" b.alloc_ceiling
                  c.minor_words_per_evaluated
              @ ceiling_json "promoted_words" b.retain_ceiling
                  c.promoted_words_per_evaluated) );
        ]
  in
  let oc = open_out path in
  output_string oc (to_string_pretty (Obj fields));
  output_char oc '\n';
  close_out oc

let read_floor path =
  let ic = open_in path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Cacti_util.Jsonx.parse text with
  | Error e -> fail "%s: %s" path e
  | Ok json ->
      let get k =
        Option.bind (Cacti_util.Jsonx.member k json) Cacti_util.Jsonx.get_float
      in
      let floor =
        match get "cold_solves_per_s_floor" with
        | Some f -> f
        | None -> fail "%s: missing cold_solves_per_s_floor" path
      in
      {
        floor;
        alloc_ceiling = get "minor_words_per_evaluated_ceiling";
        retain_ceiling = get "promoted_words_per_evaluated_ceiling";
      }

(* ------------------------------ main ------------------------------ *)

let usage () =
  print_endline
    "usage: bench/solve_bench.exe [--quick] [--out FILE] [--floor FILE]";
  print_endline "--quick: fewer cold/warm repetitions";
  print_endline
    "--floor FILE: read cold_solves_per_s_floor from FILE and fail if \
     cold throughput drops more than 30% below it, if a per-candidate \
     allocation or promotion ceiling in FILE is exceeded, or if any \
     identity or partition check fails"

let () =
  let quick = ref false in
  let out = ref "BENCH_solve.json" in
  let floor_file = ref None in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
        quick := true;
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
  Cacti_util.Tuning.solver_gc ();
  (* Best-of over enough repetitions to shake scheduler noise out of the
     headline number: single-core containers routinely show 1.5x run-to-run
     swings on identical binaries, and a best-of-3 still lands 30% low
     often enough to flake the floor gate.  A cold batch is ~25 ms, so
     even the quick gate can afford a deep best-of. *)
  let cold_reps = if !quick then 12 else 25 in
  let warm_reps = if !quick then 5 else 30 in
  Printf.printf "cold: %d-solve batch at jobs=1, best of %d...\n%!"
    batch_solves cold_reps;
  let c = bench_cold ~reps:cold_reps in
  Printf.printf
    "cold: %.3fs => %.1f solves/s (per-solve p50 %.2f ms, p99 %.2f ms)\n%!"
    c.wall_s c.solves_per_s c.p50_ms c.p99_ms;
  Printf.printf "sweep: %s\n%!" (Cacti_util.Diag.counts_to_string c.counts);
  let k = c.counts in
  let partition_ok =
    k.Cacti_util.Diag.candidates
    = k.Cacti_util.Diag.evaluated + k.Cacti_util.Diag.geometry_rejected
      + k.Cacti_util.Diag.page_rejected + k.Cacti_util.Diag.area_pruned
      + k.Cacti_util.Diag.bound_pruned + k.Cacti_util.Diag.nonviable
      + k.Cacti_util.Diag.nonfinite + k.Cacti_util.Diag.raised
  in
  Printf.printf "warm: %d batches from the memo tables...\n%!" warm_reps;
  let w = bench_warm ~reps:warm_reps in
  Printf.printf "warm: %.0f solves/s\n%!" w.warm_solves_per_s;
  let i = check_identity () in
  Printf.printf
    "identity: jobs 1 vs 2 %s, shared tables vs empty tables %s\n%!"
    (if i.jobs_identical then "bit-identical" else "DIFFER")
    (if i.memo_identical then "bit-identical" else "DIFFER");
  let inc = check_incremental () in
  Printf.printf
    "incremental: perturbed re-solves %s cold (rows reuse %s, full reuse \
     %s)\n%!"
    (if inc.inc_identical then "match" else "DIFFER FROM")
    (if inc.inc_rows_hit then "observed" else "MISSING")
    (if inc.inc_full_hit then "observed" else "MISSING");
  Printf.printf
    "alloc: %.0f minor words, %.1f promoted words per evaluated candidate\n%!"
    c.minor_words_per_evaluated c.promoted_words_per_evaluated;
  let baseline = Option.map read_floor !floor_file in
  write_json !out ~quick:!quick ~partition_ok c w i inc baseline;
  Printf.printf "wrote %s\n%!" !out;
  let failed = ref false in
  let check ok what =
    if not ok then begin
      Printf.eprintf "FAIL: %s\n" what;
      failed := true
    end
  in
  check partition_ok "sweep counts do not partition the candidate total";
  check i.jobs_identical "jobs=2 solutions differ from jobs=1";
  check i.memo_identical
    "solutions from empty tables differ from shared-table ones";
  check inc.inc_identical "incremental re-solves differ from cold solves";
  check inc.inc_rows_hit "size perturbation did not reuse the screen tree";
  check inc.inc_full_hit "tech perturbation did not reuse the survivors";
  (match baseline with
  | Some b ->
      Printf.printf "baseline floor: %.1f solves/s; this run %.2fx\n%!"
        b.floor
        (c.solves_per_s /. b.floor);
      if c.solves_per_s < 0.7 *. b.floor then
        check false
          (Printf.sprintf
             "%.1f cold solves/s is more than 30%% below the floor of %.1f"
             c.solves_per_s b.floor);
      let ceiling key measured =
        Option.iter (fun ceil ->
            if measured > ceil then
              check false
                (Printf.sprintf "%s = %.1f exceeds the ceiling of %.1f" key
                   measured ceil))
      in
      ceiling "minor_words_per_evaluated" c.minor_words_per_evaluated
        b.alloc_ceiling;
      ceiling "promoted_words_per_evaluated" c.promoted_words_per_evaluated
        b.retain_ceiling
  | None -> ());
  if !failed then exit 1
