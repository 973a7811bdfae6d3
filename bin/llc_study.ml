(* llc_study: run the stacked last-level-cache study from the command line.

     llc_study --apps ft.B,cg.C --configs nol3,sram,cm_dram_c \
               --instructions 48000000 --csv results.csv
     llc_study --trace refs.trc --apps lu.C --configs sram,cm_dram_c
     llc_study --replay refs.trc --cpu skl --configs sram,cm_dram_c

   Exit codes: 0 success, 1 usage error, 2 invalid input (bad or empty
   trace file, bad spec, unwritable CSV), 3 no solution in a CACTI solve.
   Errors are rendered as one structured diagnostic per line on stderr —
   never a backtrace.
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

(* Writes [header] and [rows] to the --csv file, if one was given.  A file
   that cannot be opened or written is an error of llc_study's own output,
   not of its input. *)
let write_csv csv header rows =
  match csv with
  | None -> []
  | Some path -> (
      match
        Out_channel.with_open_text path (fun oc ->
            output_string oc header;
            List.iter (output_string oc) rows)
      with
      | () ->
          Printf.printf "wrote %s\n" path;
          []
      | exception Sys_error msg ->
          [
            Cacti_util.Diag.error ~component:"output"
              ~reason:"csv_write_error" msg;
          ])

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
  (* loaded only once the CPU name is known to be valid *)
  let source = lazy (Mcreplay.Trace_io.load_source path) in
  match policies_r with
  | Error d -> fail_diags [ d ] Cacti_util.Diag.exit_invalid_spec
  | Ok _ when Mcreplay.Trace_io.source_length (Lazy.force source) = 0 ->
      fail_diags
        [
          Cacti_util.Diag.errorf ~component:"replay" ~reason:"empty_trace"
            "%s: the trace has no records to replay" path;
        ]
        Cacti_util.Diag.exit_invalid_spec
  | Ok with_policies ->
      let source = Lazy.force source in
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
      let csv_diags =
        write_csv csv
          "config,l1_hit_pct,l2_hit_pct,l3_hit_pct,mem_accesses,writebacks,avg_cycles\n"
          (List.map
             (fun (cfg, l1, l2, l3, mem, wb, avg) ->
               Printf.sprintf "%s,%.4f,%.4f,%.4f,%d,%d,%.4f\n" cfg l1 l2 l3
                 mem wb avg)
             rows)
      in
      if csv_diags = [] then Cacti_util.Diag.exit_ok
      else fail_diags csv_diags Cacti_util.Diag.exit_invalid_spec

(* The (app × config) grid.  With [make_gen] (--trace) every engine thread
   takes its references from the trace; the apps still set the
   instruction mix, synchronization and energy write mix. *)
let run_study ?make_gen kinds apps instructions seed csv jobs =
  let params =
    {
      Mcsim.Engine.default_params with
      total_instructions = instructions;
      seed = Int64.of_int seed;
    }
  in
  let results, diags =
    Mcsim.Study.run_all_diag ?jobs ~params ?make_gen ~kinds ~apps ()
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
  let csv_diags =
    write_csv csv
      "app,config,ipc,read_latency_cycles,l3_hit_pct,mem_hierarchy_w,system_w,exec_ms,edp_js\n"
      (List.map
         (fun (app, cfg, ipc, lat, hit, mh, sysw, ms, edp) ->
           Printf.sprintf "%s,%s,%.4f,%.2f,%.2f,%.4f,%.3f,%.3f,%.6e\n" app cfg
             ipc lat hit mh sysw ms edp)
         rows)
  in
  (* Partial failure: the surviving cells were printed above, the failed
     ones are reported as structured diagnostics, and the exit code says
     the run is incomplete. *)
  let diags = diags @ csv_diags in
  if diags = [] then Cacti_util.Diag.exit_ok
  else fail_diags diags Cacti_util.Diag.exit_invalid_spec

let run kinds apps instructions seed csv jobs trace replay cpu =
  match (replay, trace) with
  | Some path, _ -> run_replay_mode ?jobs ~cpu kinds path csv
  | None, None -> run_study kinds apps instructions seed csv jobs
  | None, Some path -> (
      let source = Mcreplay.Trace_io.load_source path in
      match Mcreplay.Trace_io.thread_gens source with
      | Error d -> fail_diags [ d ] Cacti_util.Diag.exit_invalid_spec
      | Ok make_gen ->
          run_study ~make_gen kinds apps instructions seed csv jobs)

let run_guarded kinds apps instructions seed csv jobs trace replay cpu =
  let open Cacti_util in
  try run kinds apps instructions seed csv jobs trace replay cpu with
  | Mcreplay.Trace_io.Parse_error { path; line; msg } ->
      fail_diags
        [
          Diag.errorf ~component:"replay" ~reason:"trace_parse_error"
            "%s:%d: %s" path line msg;
        ]
        Diag.exit_invalid_spec
  | Sys_error msg ->
      fail_diags
        [ Diag.error ~component:"replay" ~reason:"io_error" msg ]
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
             ~doc:"Comma-separated NPB apps (bt.C,cg.C,ft.B,is.C,lu.C,mg.B,sp.C,ua.C). \
                   With $(b,--trace) each app supplies the instruction mix, \
                   synchronization and energy write mix of its row, and \
                   the trace supplies the references.")
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
             ~doc:"Drive the engine from a recorded trace (text or binary, \
                   see cacti_replay) instead of the synthetic address \
                   generators: engine thread i replays, wrapping at the \
                   end, the records of the (i mod D)-th smallest of the D \
                   thread ids in the trace, as 64-byte lines.  The study \
                   grid is unchanged: $(b,--apps) still sets each row's \
                   instruction mix and synchronization, and \
                   $(b,--instructions) the budget.  An empty trace is \
                   rejected.")
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
             ~doc:"on an invalid or empty trace file, an invalid memory \
                   specification or an unwritable CSV file.";
           Cmd.Exit.info Cacti_util.Diag.exit_no_solution
             ~doc:"when a CACTI solve finds no valid organization.";
         ])
    term

let () =
  match Cmd.eval_value cmd with
  | Ok (`Ok code) -> exit code
  | Ok (`Version | `Help) -> exit Cacti_util.Diag.exit_ok
  | Error _ -> exit Cacti_util.Diag.exit_usage
