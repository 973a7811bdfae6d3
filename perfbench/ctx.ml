(* What every workload receives and returns, plus the per-layer metric
   catalogue (name, unit).  BENCHMARK.json at the repository root lists the
   same names; run.py refuses a result whose metric names differ from it. *)

type t = {
  seed : int;
  seconds : float;  (** measuring budget; whole cycles, at least one *)
  traced : bool;
  bless : bool;  (** one untimed-budget cycle that records digests *)
  dir : string;  (** this run's scratch directory inside the checkout *)
  check : Check.t;
  spans : Harness.Spans.t;
}

type outcome = {
  setup : float array;  (** set-up samples, seconds *)
  ops : Harness.Fvec.t;  (** latency of every untraced timed op, seconds *)
  work : float;  (** work units done by those ops *)
  work_unit : string;
  inputs : (string * Cacti_util.Jsonx.t) list;  (** sizes, for the report *)
  layers : (string * float) list;  (** per-layer metrics; traced runs only *)
  dominance : (string * float) list;
      (** traced runs: share of op time taken by the layer the workload
          was chosen for *)
}

(* Run [f cycle] over whole cycles of the workload's inputs until the
   budget is spent; a bless run does exactly one cycle. *)
let cycles t f =
  let t0 = Harness.now_ns () in
  let c = ref 0 in
  while
    !c = 0
    || ((not t.bless) && Harness.s_of_ns (Harness.now_ns () - t0) < t.seconds)
  do
    f !c;
    incr c
  done

(* Per-cycle values of each per-layer metric; the reported value is the
   median over the cycles of the traced run. *)
module Per_cycle = struct
  type t = (string, float list) Hashtbl.t

  let create () : t = Hashtbl.create 32

  let add (t : t) name v =
    Hashtbl.replace t name (v :: Option.value (Hashtbl.find_opt t name) ~default:[])

  let medians (t : t) =
    Hashtbl.fold (fun k vs acc -> (k, Harness.median_list vs) :: acc) t []
end

let ratio num den = if den = 0. then 0. else num /. den

(* A layer a workload does not call reports 0. *)
let per_layer =
  let s n = (n, "s") in
  [
    s "jsonx.parse.self_s";
    s "service.handle_json.warm.self_s";
    s "service.handle_json.cold.self_s";
    s "service.handle_json.cold_cache.self_s";
    s "service.handle_json.cold_ram.self_s";
    s "service.handle_json.cold_mainmem.self_s";
    s "jsonx.to_string.self_s";
    ("service.resp_cache.hit_ratio", "1");
    ("solve_cache.hit_ratio", "1");
    ("solve_cache.mat_memo.hit_ratio", "1");
    ("solve_cache.incremental.reuse_ratio", "1");
    ("solve_cache.entries", "count");
    ("solve_cache.mat_memo.entries", "count");
    s "study.build.self_s";
    s "engine.run.self_s";
    ("engine.run.ns_per_instr", "ns");
    s "energy.system.self_s";
    ("engine.l1_hit_ratio", "1");
    ("engine.l2_hit_ratio", "1");
    ("engine.l3_hit_ratio", "1");
    ("engine.mem_per_kinstr", "1/kinstr");
    ("engine.coherence_per_kinstr", "1/kinstr");
    ("engine.dram_row_hit_ratio", "1");
    s "trace_io.convert.self_s";
    s "trace_io.load_source.self_s";
    s "trace_io.decode.self_s";
    s "replayer.step.self_s";
    ("replayer.step.ns_per_access", "ns");
    s "report.render.self_s";
    ("report.render.ns_per_access", "ns");
    s "report.emit.self_s";
    ("report.bytes_per_access", "B");
    ("replayer.l1_hit_ratio", "1");
    ("replayer.l2_hit_ratio", "1");
    ("replayer.l3_hit_ratio", "1");
    ("replayer.mem_per_kaccess", "1/kaccess");
    ("replayer.invalidations_per_kaccess", "1/kaccess");
    ("replayer.c2c_per_kaccess", "1/kaccess");
    ("replayer.writebacks_per_kaccess", "1/kaccess");
    ("gc.minor_words_per_work", "words");
    ("gc.major_collections", "count");
    ("tracing.overhead_ratio", "1");
    ("layers.coverage_ratio", "1");
  ]

(* The stated tolerance of layers.coverage_ratio. *)
let coverage_lo = 0.95
let coverage_hi = 1.05
