(* llc_study: the Section 4 stacked-LLC study, one (app x config) cell per
   op, over the 8 NPB apps x 6 LLC configurations.  The only workload that
   runs Engine / Cache_sim / Dram_sim / Workload.  Caches start empty in
   every cell, as in the study itself; a cycle is the whole grid. *)

open Harness
module Study = Mcsim.Study
module Engine = Mcsim.Engine
module Stats = Mcsim.Stats
module Energy = Mcsim.Energy
module Jsonx = Cacti_util.Jsonx

(* Scaled down from the study's 48M so that a cell is tens of ms and a
   run holds hundreds of cells. *)
let instructions = 400_000
let n_setup = 9
let kinds = Study.all_kinds
let apps = Mcsim.Apps.all

let cells =
  Array.of_list
    (List.concat_map (fun app -> List.map (fun k -> (app, k)) kinds) apps)

let cell_name (app, kind) =
  Printf.sprintf "%s/%s" app.Mcsim.Workload.name (Study.kind_name kind)

(* Set-up is the CACTI-D solves of the six configurations.  Study.build
   memoizes them for the life of the process, so each sample runs in a
   forked child that starts with empty memo tables; it reports the build
   time of each configuration through a pipe. *)
let child_build () =
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let msg =
        try
          List.map
            (fun k ->
              let t0 = now_ns () in
              ignore (Sys.opaque_identity (Study.build ~jobs:1 k));
              Printf.sprintf "%h" (s_of_ns (now_ns () - t0)))
            kinds
          |> String.concat " "
        with e -> "error " ^ Printexc.to_string e
      in
      let b = Bytes.of_string (msg ^ "\n") in
      ignore (Unix.write wr b 0 (Bytes.length b));
      Unix._exit 0
  | pid -> (
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let line = String.trim (In_channel.input_all ic) in
      close_in ic;
      ignore (Unix.waitpid [] pid);
      let times = List.filter_map float_of_string_opt (String.split_on_char ' ' line) in
      match times with
      | _ :: _ when List.length times = List.length kinds -> List.fold_left ( +. ) 0. times
      | _ -> failwith ("llc_study: set-up child failed: " ^ line))

(* Every simulated statistic and energy figure of a cell, printed exactly
   (%h), then hashed. *)
let fingerprint (s : Stats.t) (e : Energy.system) =
  let b = Buffer.create 1024 in
  let i v = Printf.bprintf b "%d " v and f v = Printf.bprintf b "%h " v in
  let bd = s.Stats.breakdown in
  List.iter i
    [ bd.instr; bd.l2; bd.l3; bd.mem; bd.barrier; bd.lock; s.instructions; s.exec_cycles;
      s.l1_accesses; s.l1_hits; s.l2_accesses; s.l2_hits; s.l3_accesses; s.l3_hits;
      s.c2c_transfers; s.invalidations; s.l1_writebacks; s.l2_writebacks; s.l3_writebacks;
      s.mem_reads; s.mem_writes; s.read_count; s.read_latency_sum; s.ifetch_lines ];
  (match s.dram with
  | None -> ()
  | Some d ->
      List.iter i
        [ d.activates; d.reads; d.writes; d.precharges; d.row_hits; d.busy_cycles;
          d.powerdown_cycles; d.wakeups ]);
  let p = e.Energy.power in
  List.iter f
    [ p.l1_leak; p.l1_dyn; p.l2_leak; p.l2_dyn; p.xbar_leak; p.xbar_dyn; p.l3_leak; p.l3_dyn;
      p.l3_refresh; p.mem_chip_dyn; p.mem_standby; p.mem_refresh; p.mem_bus; e.core_power;
      e.system_power; e.exec_seconds; e.energy_joules; e.energy_delay ];
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Per cell: Stats.check_consistency, every rerun identical to the cell's
   first run in this process, and at the default seed the blessed digest. *)
let check_cell ctx firsts idx stats sys =
  let errors =
    match Stats.check_consistency stats with
    | Error e -> [ Printf.sprintf "llc_study %s: %s" (cell_name cells.(idx)) e ]
    | Ok () -> (
        let fp = fingerprint stats sys in
        match firsts.(idx) with
        | Some f when f = fp -> []
        | Some _ -> [ "llc_study: rerun differs: " ^ cell_name cells.(idx) ]
        | None -> (
            firsts.(idx) <- Some fp;
            match Check.digest ctx.Ctx.check ("llc_study/" ^ cell_name cells.(idx)) fp with
            | None -> []
            | Some msg -> [ msg ]))
  in
  Check.op ctx.Ctx.check errors

type model = {
  mutable instr : int;
  mutable l1 : int * int;
  mutable l2 : int * int;
  mutable l3 : int * int;
  mutable mem : int;
  mutable coh : int;
  mutable rows : int * int;
}

let add_model m (s : Stats.t) =
  let ( ++ ) (a, b) (c, d) = (a + c, b + d) in
  m.instr <- m.instr + s.instructions;
  m.l1 <- m.l1 ++ (s.l1_hits, s.l1_accesses);
  m.l2 <- m.l2 ++ (s.l2_hits, s.l2_accesses);
  m.l3 <- m.l3 ++ (s.l3_hits, s.l3_accesses);
  m.mem <- m.mem + s.mem_reads + s.mem_writes;
  m.coh <- m.coh + s.invalidations + s.c2c_transfers;
  match s.dram with
  | Some d -> m.rows <- m.rows ++ (d.row_hits, d.reads + d.writes)
  | None -> ()

let run (ctx : Ctx.t) : Ctx.outcome =
  let params =
    { Engine.default_params with total_instructions = instructions;
      seed = Gen.engine_seed ~seed:ctx.seed }
  in
  let setup = Array.init n_setup (fun _ -> child_build ()) in
  let builts = List.map (fun k -> (k, Study.build ~jobs:1 k)) kinds in
  let built_of k = List.assq k builts in
  let firsts = Array.make (Array.length cells) None in
  let ops = Fvec.create () in
  let work = ref 0 in
  let words = ref 0. and majors = ref 0 in
  let untraced_s = ref 0. and traced_s = ref 0. in
  let per = Ctx.Per_cycle.create () in
  let untraced idx =
    let app, kind = cells.(idx) in
    let built = built_of kind in
    let w0 = Gc.minor_words () and m0 = (Gc.quick_stat ()).Gc.major_collections in
    let t0 = now_ns () in
    let r = Study.run_app ~params built app in
    let t1 = now_ns () in
    words := !words +. (Gc.minor_words () -. w0);
    majors := !majors + (Gc.quick_stat ()).Gc.major_collections - m0;
    let dt = s_of_ns (t1 - t0) in
    Fvec.push ops dt;
    untraced_s := !untraced_s +. dt;
    work := !work + r.Study.stats.Stats.instructions;
    check_cell ctx firsts idx r.Study.stats r.Study.sys
  in
  let traced ~op idx =
    let app, kind = cells.(idx) in
    let machine = (built_of kind).Study.machine in
    let spans = ctx.Ctx.spans in
    let sp = Spans.enter spans "op" ~op in
    let stats =
      Spans.with_span spans "engine.run" ~op (fun () -> Engine.run ~params machine app)
    in
    let sys =
      Spans.with_span spans "energy.system" ~op (fun () -> Energy.system machine app stats)
    in
    Spans.leave spans sp;
    traced_s := !traced_s +. s_of_ns (Spans.duration spans.Spans.all.(sp));
    check_cell ctx firsts idx stats sys;
    stats
  in
  let engine_share = ref [] in
  Ctx.cycles ctx (fun cycle ->
      let order = Array.init (Array.length cells) Fun.id in
      Gen.shuffle (Gen.rng ~seed:ctx.seed ~stream:(4_000 + cycle)) order;
      if not ctx.traced then Array.iter untraced order
      else begin
        let from = ctx.spans.Spans.n in
        let majors0 = !majors in
        let m = { instr = 0; l1 = (0, 0); l2 = (0, 0); l3 = (0, 0); mem = 0; coh = 0; rows = (0, 0) } in
        let wall0 = !traced_s in
        Array.iteri
          (fun j idx ->
            let op = (cycle * Array.length cells) + j in
            if j land 1 = 0 then begin
              untraced idx;
              add_model m (traced ~op idx)
            end
            else begin
              add_model m (traced ~op idx);
              untraced idx
            end)
          order;
        let wall = !traced_s -. wall0 in
        let self = Spans.self_times ~from ctx.spans in
        let get n = Option.value (Hashtbl.find_opt self n) ~default:0. in
        let add = Ctx.Per_cycle.add per in
        let frac (h, a) = Ctx.ratio (float_of_int h) (float_of_int a) in
        let per_k n = Ctx.ratio (float_of_int n *. 1000.) (float_of_int m.instr) in
        add "engine.run.self_s" (get "engine.run");
        add "energy.system.self_s" (get "energy.system");
        add "engine.run.ns_per_instr" (Ctx.ratio (get "engine.run" *. 1e9) (float_of_int m.instr));
        add "engine.l1_hit_ratio" (frac m.l1);
        add "engine.l2_hit_ratio" (frac m.l2);
        add "engine.l3_hit_ratio" (frac m.l3);
        add "engine.mem_per_kinstr" (per_k m.mem);
        add "engine.coherence_per_kinstr" (per_k m.coh);
        add "engine.dram_row_hit_ratio" (frac m.rows);
        add "layers.coverage_ratio" (Ctx.ratio (get "engine.run" +. get "energy.system") wall);
        add "gc.major_collections" (float_of_int (!majors - majors0));
        engine_share := Ctx.ratio (get "engine.run") wall :: !engine_share
      end);
  let layers =
    if not ctx.traced then []
    else
      ("study.build.self_s", median setup)
      :: ("gc.minor_words_per_work", Ctx.ratio !words (float_of_int !work))
      :: ("tracing.overhead_ratio", Ctx.ratio !traced_s !untraced_s)
      :: Ctx.Per_cycle.medians per
  in
  {
    Ctx.setup;
    ops;
    work = float_of_int !work;
    work_unit = "instructions";
    inputs =
      [
        ("cells", Jsonx.Int (Array.length cells));
        ("instructions_per_cell", Jsonx.Int instructions);
        ("engine_seed", Jsonx.Int (Int64.to_int params.Engine.seed));
      ];
    layers;
    dominance = (if ctx.traced then [ ("engine.run", median_list !engine_share) ] else []);
  }
