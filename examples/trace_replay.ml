(* Trace-driven simulation: record the reference streams of a synthetic
   workload into a trace file, drive the study engine from that file, and
   check that the replay reproduces the live run exactly.

   The file is trace format v2 (Mcreplay.Trace_io, the format
   cacti_replay reads), so streams captured from other tools drive the
   engine the same way: llc_study --trace FILE --apps APP.

   Run with:  dune exec examples/trace_replay.exe *)

module Trace_io = Mcreplay.Trace_io

let () =
  let app = Mcsim.Apps.lu_c in
  let machine = (Mcsim.Study.build Mcsim.Study.Sram_l3).Mcsim.Study.machine in
  let params =
    {
      Mcsim.Engine.default_params with
      total_instructions = 2_000_000;
      seed = 7L;
    }
  in
  let n_threads = Mcsim.Machine.n_threads machine in
  (* A thread issues at most one reference per instruction, so its share
     of the budget bounds the references it consumes. *)
  let quota = params.Mcsim.Engine.total_instructions / n_threads in

  (* 1. Record every thread's first [quota] references, interleaved, with
     thread id = engine thread and byte address = line * 64. *)
  let gens =
    Array.init n_threads (fun thread_id ->
        Mcsim.Workload.gen app ~n_threads ~thread_id
          ~seed:params.Mcsim.Engine.seed)
  in
  let path = Filename.temp_file "lu_trace" ".crtb" in
  let oc = open_out_bin path in
  let w = Trace_io.open_writer Trace_io.Binary oc in
  for _ = 1 to quota do
    Array.iteri
      (fun tid g ->
        let line, write = Mcsim.Workload.next g in
        Trace_io.write_record w ~tid ~write
          ~addr:(line * Mcsim.Study_config.line_bytes))
      gens
  done;
  Trace_io.close_writer w;
  close_out oc;
  Printf.printf "recorded %d threads x %d refs to %s\n" n_threads quota path;

  (* 2. Replay from disk: every engine thread takes its references from
     the trace; the app still sets the instruction mix and barriers. *)
  let make_gen =
    match Trace_io.thread_gens (Trace_io.load_source path) with
    | Ok make_gen -> make_gen
    | Error d -> failwith d.Cacti_util.Diag.message
  in
  let replay = Mcsim.Engine.run ~params ~make_gen machine app in
  Sys.remove path;

  (* 3. The live generators at the same budget and seed. *)
  let live = Mcsim.Engine.run ~params machine app in
  let show name st =
    Printf.printf
      "%-6s %d instructions, IPC %.3f, L1 hit %.1f%%, %d memory reads\n" name
      st.Mcsim.Stats.instructions (Mcsim.Stats.ipc st)
      (100.
      *. float_of_int st.Mcsim.Stats.l1_hits
      /. float_of_int (max 1 st.Mcsim.Stats.l1_accesses))
      st.Mcsim.Stats.mem_reads
  in
  show "replay" replay;
  show "live" live;
  Printf.printf "replay = live run: %b\n" (compare replay live = 0)
