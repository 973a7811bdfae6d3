(* llc_study: run the stacked last-level-cache study from the command line.

     llc_study --apps ft.B,cg.C --configs nol3,sram,cm_dram_c \
               --instructions 48000000 --csv results.csv
     llc_study --trace refs.trc --configs sram,cm_dram_c
     llc_study --replay refs.trc --cpu skl --configs sram,cm_dram_c

   Exit codes: 0 success, 1 usage error, 2 invalid input (bad trace file,
   bad spec), 3 no solution in a CACTI solve.  Errors are rendered as one
   structured diagnostic per line on stderr — never a backtrace.
*)

open Cmdliner

let kind_of_string s =
  List.find_opt
    (fun k -> Mcsim.Study.kind_name k = s)
    Mcsim.Study.all_kinds

let kinds_conv =
  let parse s =
    let names = String.split_on_char ',' s in
    let kinds = List.map (fun n -> (n, kind_of_string (String.trim n))) names in
    match List.find_opt (fun (_, k) -> k = None) kinds with
    | Some (n, _) -> Error (`Msg (Printf.sprintf "unknown configuration %S" n))
    | None -> Ok (List.filter_map snd kinds)
  in
  Arg.conv
    ( parse,
      fun ppf ks ->
        Format.fprintf ppf "%s"
          (String.concat "," (List.map Mcsim.Study.kind_name ks)) )

let apps_conv =
  let parse s =
    let names = String.split_on_char ',' s in
    try Ok (List.map (fun n -> Mcsim.Apps.by_name (String.trim n)) names)
    with Not_found -> Error (`Msg (Printf.sprintf "unknown app in %S" s))
  in
  Arg.conv
    ( parse,
      fun ppf apps ->
        Format.fprintf ppf "%s"
          (String.concat ","
             (List.map (fun a -> a.Mcsim.Workload.name) apps)) )

let fail_diags ds code =
  prerr_endline (Cacti_util.Diag.render ds);
  code

(* Trace replay: one synthetic "app" per configuration, driven by the
   recorded references instead of the NPB generators.  Like the synthetic
   study, the builds run serially (memoized CACTI solves) and the
   per-configuration simulations fan out over a domain pool; the replayed
   reference streams come from the immutable trace arrays, so every
   configuration reads them independently. *)
let run_trace ?jobs ~params kinds tr =
  let app = Mcsim.Trace.to_app tr in
  let builts = List.map (fun kind -> Mcsim.Study.build ?jobs kind) kinds in
  let pool = Cacti_util.Pool.create ?jobs () in
  Cacti_util.Pool.parallel_map ~chunk:1 pool
    (fun (b : Mcsim.Study.built) ->
      let stats =
        Mcsim.Engine.run ~params ~make_gen:(Mcsim.Trace.make_gen tr)
          b.Mcsim.Study.machine app
      in
      let sys = Mcsim.Energy.system b.Mcsim.Study.machine app stats in
      { Mcsim.Study.app; config = b; stats; sys })
    builts

(* Real-trace replay (--replay): re-run the study's configurations
   against a recorded memory-access trace with real CPU replacement
   policies (lib/replay), instead of the timed synthetic engine.
   [Replayer.run_configs] buckets the trace once and fans the (config ×
   shard) work items out over one pool; results are identical for any
   --jobs value. *)
let run_replay_mode ?jobs ~cpu kinds path csv =
  let policies_r =
    match cpu with
    | None -> Ok Fun.id
    | Some name ->
        Result.map Mcreplay.Replayer.with_preset
          (Mcsim.Policy.preset_of_string name)
  in
  match policies_r with
  | Error d -> fail_diags [ d ] Cacti_util.Diag.exit_invalid_spec
  | Ok with_policies ->
      let source = Mcreplay.Trace_io.load_source path in
      let builts = List.map (fun kind -> Mcsim.Study.build ?jobs kind) kinds in
      let cfgs =
        Array.of_list
          (List.map
             (fun (b : Mcsim.Study.built) ->
               with_policies
                 (Mcreplay.Replayer.of_machine b.Mcsim.Study.machine))
             builts)
      in
      let sums, diags = Mcreplay.Replayer.run_configs ?jobs cfgs source in
      if diags <> [] then prerr_endline (Cacti_util.Diag.render diags);
      let results = List.mapi (fun c b -> (b, sums.(c))) builts in
      let pct n d = if d = 0 then 0. else 100. *. float_of_int n /. float_of_int d in
      let rows =
        List.map
          (fun ((b : Mcsim.Study.built), (s : Mcreplay.Replayer.summary)) ->
            ( Mcsim.Study.kind_name b.Mcsim.Study.kind,
              pct s.Mcreplay.Replayer.l1_hits s.Mcreplay.Replayer.accesses,
              pct s.Mcreplay.Replayer.l2_hits s.Mcreplay.Replayer.l2_accesses,
              pct s.Mcreplay.Replayer.l3_hits s.Mcreplay.Replayer.l3_accesses,
              s.Mcreplay.Replayer.mem_accesses,
              s.Mcreplay.Replayer.writebacks,
              if s.Mcreplay.Replayer.accesses = 0 then 0.
              else
                float_of_int s.Mcreplay.Replayer.total_cycles
                /. float_of_int s.Mcreplay.Replayer.accesses ))
          results
      in
      let t =
        Cacti_util.Table.create
          [
            "config"; "L1 hit %"; "L2 hit %"; "L3 hit %"; "mem refs";
            "writebacks"; "avg cycles";
          ]
      in
      List.iter
        (fun (cfg, l1, l2, l3, mem, wb, avg) ->
          Cacti_util.Table.add_row t
            [
              cfg;
              Cacti_util.Table.cell_f ~dec:2 l1;
              Cacti_util.Table.cell_f ~dec:2 l2;
              Cacti_util.Table.cell_f ~dec:2 l3;
              string_of_int mem;
              string_of_int wb;
              Cacti_util.Table.cell_f ~dec:2 avg;
            ])
        rows;
      Cacti_util.Table.print t;
      (match csv with
      | None -> ()
      | Some out ->
          let oc = open_out out in
          output_string oc
            "config,l1_hit_pct,l2_hit_pct,l3_hit_pct,mem_accesses,writebacks,avg_cycles\n";
          List.iter
            (fun (cfg, l1, l2, l3, mem, wb, avg) ->
              Printf.fprintf oc "%s,%.4f,%.4f,%.4f,%d,%d,%.4f\n" cfg l1 l2 l3
                mem wb avg)
            rows;
          close_out oc;
          Printf.printf "wrote %s\n" out);
      Cacti_util.Diag.exit_ok

let run_study kinds apps instructions seed csv jobs trace =
  let params =
    {
      Mcsim.Engine.default_params with
      total_instructions = instructions;
      seed = Int64.of_int seed;
    }
  in
  let results, diags =
    match trace with
    | None -> Mcsim.Study.run_all_diag ?jobs ~params ~kinds ~apps ()
    | Some path -> (run_trace ?jobs ~params kinds (Mcsim.Trace.load path), [])
  in
  let t =
    Cacti_util.Table.create
      [
        "app"; "config"; "IPC"; "read lat"; "L3 hit %"; "mem hier W";
        "system W"; "exec ms"; "EDP (J.s)";
      ]
  in
  let rows =
    List.map
      (fun (r : Mcsim.Study.app_result) ->
        let st = r.Mcsim.Study.stats in
        let sys = r.Mcsim.Study.sys in
        let l3hit =
          100.
          *. float_of_int st.Mcsim.Stats.l3_hits
          /. float_of_int (max 1 st.Mcsim.Stats.l3_accesses)
        in
        ( r.Mcsim.Study.app.Mcsim.Workload.name,
          Mcsim.Study.kind_name r.Mcsim.Study.config.Mcsim.Study.kind,
          Mcsim.Stats.ipc st,
          Mcsim.Stats.avg_read_latency st,
          l3hit,
          Mcsim.Energy.memory_hierarchy sys.Mcsim.Energy.power,
          sys.Mcsim.Energy.system_power,
          sys.Mcsim.Energy.exec_seconds *. 1e3,
          sys.Mcsim.Energy.energy_delay ))
      results
  in
  List.iter
    (fun (app, cfg, ipc, lat, hit, mh, sysw, ms, edp) ->
      Cacti_util.Table.add_row t
        [
          app; cfg;
          Cacti_util.Table.cell_f ~dec:2 ipc;
          Cacti_util.Table.cell_f ~dec:1 lat;
          Cacti_util.Table.cell_f ~dec:1 hit;
          Cacti_util.Table.cell_f ~dec:2 mh;
          Cacti_util.Table.cell_f ~dec:1 sysw;
          Cacti_util.Table.cell_f ~dec:1 ms;
          Printf.sprintf "%.3e" edp;
        ])
    rows;
  Cacti_util.Table.print t;
  (match csv with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      output_string oc
        "app,config,ipc,read_latency_cycles,l3_hit_pct,mem_hierarchy_w,system_w,exec_ms,edp_js\n";
      List.iter
        (fun (app, cfg, ipc, lat, hit, mh, sysw, ms, edp) ->
          Printf.fprintf oc "%s,%s,%.4f,%.2f,%.2f,%.4f,%.3f,%.3f,%.6e\n" app
            cfg ipc lat hit mh sysw ms edp)
        rows;
      close_out oc;
      Printf.printf "wrote %s\n" path);
  (* Partial failure: the surviving cells were printed above, the failed
     ones are reported as structured diagnostics, and the exit code says
     the run is incomplete. *)
  if diags = [] then Cacti_util.Diag.exit_ok
  else fail_diags diags Cacti_util.Diag.exit_invalid_spec

let run kinds apps instructions seed csv jobs trace replay cpu =
  match replay with
  | Some path -> run_replay_mode ?jobs ~cpu kinds path csv
  | None -> run_study kinds apps instructions seed csv jobs trace

let run_guarded kinds apps instructions seed csv jobs trace replay cpu =
  let open Cacti_util in
  try run kinds apps instructions seed csv jobs trace replay cpu with
  | Mcsim.Trace.Parse_error { path; line; msg } ->
      fail_diags
        [
          Diag.errorf ~component:"trace" ~reason:"parse_error" "%s:%d: %s"
            path line msg;
        ]
        Diag.exit_invalid_spec
  | Mcreplay.Trace_io.Parse_error { path; line; msg } ->
      fail_diags
        [
          Diag.errorf ~component:"replay" ~reason:"trace_parse_error"
            "%s:%d: %s" path line msg;
        ]
        Diag.exit_invalid_spec
  | Sys_error msg ->
      fail_diags
        [ Diag.error ~component:"trace" ~reason:"io_error" msg ]
        Diag.exit_invalid_spec
  | Invalid_argument msg ->
      fail_diags
        [ Diag.error ~component:"spec" ~reason:"invalid" msg ]
        Diag.exit_invalid_spec
  | Cacti.Optimizer.No_solution msg ->
      fail_diags
        [ Diag.error ~component:"solver" ~reason:"no_solution" msg ]
        Diag.exit_no_solution

let cmd =
  let kinds =
    Arg.(value & opt kinds_conv Mcsim.Study.all_kinds
         & info [ "configs" ] ~docv:"LIST"
             ~doc:"Comma-separated configurations \
                   (nol3,sram,lp_dram_ed,lp_dram_c,cm_dram_ed,cm_dram_c).")
  in
  let apps =
    Arg.(value & opt apps_conv Mcsim.Apps.all
         & info [ "apps" ] ~docv:"LIST"
             ~doc:"Comma-separated NPB apps (bt.C,cg.C,ft.B,is.C,lu.C,mg.B,sp.C,ua.C).")
  in
  let instructions =
    Arg.(value & opt int 48_000_000
         & info [ "instructions"; "n" ] ~doc:"Total simulated instructions per run.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"RNG seed.") in
  let csv =
    Arg.(value & opt (some string) None
         & info [ "csv" ] ~docv:"FILE" ~doc:"Also write results as CSV.")
  in
  let jobs =
    Arg.(value & opt (some int) None
         & info [ "jobs"; "j" ] ~docv:"N"
             ~doc:"Worker domains for the CACTI solves and for fanning the \
                   app × configuration simulation matrix over a pool \
                   (default: cores - 1). Any value returns identical \
                   results.")
  in
  let trace =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Replay a recorded reference trace (see lib/sim/trace.mli \
                   for the format) instead of the synthetic NPB apps; \
                   $(b,--apps) is ignored.")
  in
  let replay =
    Arg.(value & opt (some string) None
         & info [ "replay" ] ~docv:"FILE"
             ~doc:"Replay a real memory-access trace (text or binary, see \
                   cacti_replay) through each configuration's hierarchy \
                   with real CPU replacement policies instead of running \
                   the timed engine; $(b,--apps), $(b,--instructions), \
                   $(b,--seed) and $(b,--trace) are ignored.")
  in
  let cpu =
    Arg.(value & opt (some string) None
         & info [ "cpu" ] ~docv:"NAME"
             ~doc:"With $(b,--replay): CPU preset selecting per-level \
                   replacement policies (nehalem|snb|ivb|hsw|skl|cfl; \
                   default LRU everywhere). Unknown names are rejected \
                   with the valid list.")
  in
  let term =
    Term.(
      const run_guarded $ kinds $ apps $ instructions $ seed $ csv $ jobs
      $ trace $ replay $ cpu)
  in
  Cmd.v
    (Cmd.info "llc_study" ~version:"1.0"
       ~doc:"The paper's stacked last-level-cache study, parameterized"
       ~exits:
         [
           Cmd.Exit.info Cacti_util.Diag.exit_ok ~doc:"on success.";
           Cmd.Exit.info Cacti_util.Diag.exit_usage
             ~doc:"on command-line parsing errors.";
           Cmd.Exit.info Cacti_util.Diag.exit_invalid_spec
             ~doc:"on an invalid trace file or memory specification.";
           Cmd.Exit.info Cacti_util.Diag.exit_no_solution
             ~doc:"when a CACTI solve finds no valid organization.";
         ])
    term

let () =
  match Cmd.eval_value cmd with
  | Ok (`Ok code) -> exit code
  | Ok (`Version | `Help) -> exit Cacti_util.Diag.exit_ok
  | Error _ -> exit Cacti_util.Diag.exit_usage
