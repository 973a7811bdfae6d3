(* cacti_d: command-line front-end to the CACTI-D models.

     cacti_d cache --size 2MB --assoc 8 --tech 32 --ram lp-dram
     cacti_d ram --size 256KB --word-bits 128 --tech 45
     cacti_d mainmem --bits 8Gb --page 8192 --interface ddr4 --tech 32

   Exit codes: 0 success, 1 usage error, 2 invalid specification,
   3 no solution in the design space.  Errors are rendered as one
   structured diagnostic per line on stderr — never a backtrace.
*)

open Cmdliner
open Cacti_util

(* ------------------------------------------------------------------ *)
(* Argument converters                                                  *)
(* ------------------------------------------------------------------ *)

let size_conv =
  let parse s =
    let s = String.uppercase_ascii (String.trim s) in
    let num suffix mult =
      if Filename.check_suffix s suffix then
        let body = Filename.chop_suffix s suffix in
        match float_of_string_opt body with
        | Some f -> Some (int_of_float (f *. mult))
        | None -> None
      else None
    in
    let candidates =
      [
        num "KB" 1024.; num "MB" (1024. *. 1024.);
        num "GB" (1024. *. 1024. *. 1024.); num "K" 1024.;
        num "M" (1024. *. 1024.); num "B" 1.;
      ]
    in
    match List.find_opt Option.is_some candidates with
    | Some (Some n) -> Ok n
    | _ -> (
        match int_of_string_opt s with
        | Some n -> Ok n
        | None -> Error (`Msg (Printf.sprintf "cannot parse size %S" s)))
  in
  let print ppf n = Format.fprintf ppf "%d" n in
  Arg.conv (parse, print)

let bits_conv =
  (* like size_conv but for bit counts: 8Gb, 1Gb, 512Mb *)
  let parse s =
    let s = String.trim s in
    let lower = String.lowercase_ascii s in
    let suffixed suffix mult =
      if Filename.check_suffix lower suffix then
        let body = Filename.chop_suffix lower suffix in
        match float_of_string_opt body with
        | Some f -> Some (int_of_float (f *. mult))
        | None -> None
      else None
    in
    match
      List.find_opt Option.is_some
        [
          suffixed "gb" (1024. *. 1024. *. 1024.);
          suffixed "mb" (1024. *. 1024.);
          suffixed "kb" 1024.;
        ]
    with
    | Some (Some n) -> Ok n
    | _ -> (
        match int_of_string_opt s with
        | Some n -> Ok n
        | None -> Error (`Msg (Printf.sprintf "cannot parse bit count %S" s)))
  in
  Arg.conv (parse, fun ppf n -> Format.fprintf ppf "%d" n)

let ram_conv =
  Arg.enum
    [
      ("sram", Cacti_tech.Cell.Sram);
      ("lp-dram", Cacti_tech.Cell.Lp_dram);
      ("comm-dram", Cacti_tech.Cell.Comm_dram);
    ]

let mode_conv =
  Arg.enum
    [
      ("normal", Cacti.Cache_spec.Normal);
      ("sequential", Cacti.Cache_spec.Sequential);
      ("fast", Cacti.Cache_spec.Fast);
    ]

let opt_conv =
  Arg.enum
    [
      ("default", Cacti.Opt_params.default);
      ("delay", Cacti.Opt_params.delay_optimal);
      ("area", Cacti.Opt_params.area_optimal);
      ("energy", Cacti.Opt_params.energy_optimal);
    ]

(* Common options *)

let tech_nm =
  Arg.(value & opt float 32. & info [ "tech" ] ~docv:"NM"
         ~doc:"Technology node in nm (32-90; intermediate values interpolate).")

let opt_params =
  Arg.(value & opt opt_conv Cacti.Opt_params.default
       & info [ "optimize" ] ~docv:"GOAL"
           ~doc:"Optimization preset: default, delay, area or energy \
                 (the Section 2.4 staged selection).")

let jobs =
  Arg.(value & opt (some int) None
       & info [ "jobs"; "j" ] ~docv:"N"
           ~doc:"Worker domains for the design-space sweep (default: \
                 cores - 1).  Any value returns identical solutions.")

let strict =
  Arg.(value & flag
       & info [ "strict" ]
           ~doc:"Disable per-candidate fault containment: the first \
                 exception or non-finite metric in the sweep aborts the \
                 solve instead of being counted as a rejection.")

let summary =
  Arg.(value & flag
       & info [ "summary" ]
           ~doc:"After the results, print the design-space sweep summary: \
                 candidates considered, rejections by reason, memo hits.")

let json_flag =
  Arg.(value & flag
       & info [ "json" ]
           ~doc:"Machine-readable output: print one JSON object on stdout \
                 with the solution (or, on failure, the diagnostics) \
                 instead of the human rendering.  Exit codes are \
                 unchanged.")

let profile_flag =
  Arg.(value & flag
       & info [ "profile" ]
           ~doc:"Measure the solve: print per-phase wall-clock totals \
                 (enumerate, column_build, kernel_eval, mat_solve, \
                 incremental_reuse, optimize), the candidate \
                 rejection/prune histogram and the memo-table counters \
                 on stderr after the run.")

(* ------------------------------------------------------------------ *)
(* Error rendering and exit codes                                       *)
(* ------------------------------------------------------------------ *)

let fail_diags ~json ds code =
  if json then
    print_endline
      (Jsonx.to_string_pretty
         (Jsonx.Obj
            [
              ("ok", Jsonx.Bool false);
              ( "diagnostics",
                Jsonx.List (List.map Cacti_server.Protocol.diag_to_json ds) );
            ]))
  else prerr_endline (Diag.render ds);
  code

let invalid ~json ds = fail_diags ~json ds Diag.exit_invalid_spec

(* Solve-time diagnostics: an empty design space exits 3; anything that is
   really a spec/params problem exits 2. *)
let solve_failed ~json ds =
  let code =
    if List.exists (fun d -> d.Diag.reason = "no_solution") ds then
      Diag.exit_no_solution
    else Diag.exit_invalid_spec
  in
  fail_diags ~json ds code

let print_summary enabled s =
  if enabled then
    Format.printf "  sweep summary       %s@." (Diag.summary_to_string s)

(* --profile: enable the phase accumulators before the solve runs... *)
let profile_start profile =
  if profile then (Profile.reset (); Profile.set_enabled true)

(* ... and render them afterwards, with the sweep's rejection/prune
   histogram.  Everything goes to stderr so --json stdout stays
   machine-parseable. *)
let profile_report ~profile s =
  if profile then begin
    Format.eprintf "profile:@.";
    List.iter
      (fun (phase, secs, calls) ->
        Format.eprintf "  %-16s %9.3f ms  %7d call%s@." phase (1e3 *. secs)
          calls
          (if calls = 1 then "" else "s"))
      (Profile.summary ());
    Format.eprintf "  sweep            %s@."
      (Diag.counts_to_string s.Diag.sweeps);
    let i = Cacti.Solve_cache.incremental_stats () in
    Format.eprintf
      "  incremental      %d full, %d rows-only, %d miss(es)@."
      i.Cacti.Solve_cache.full_hits i.Cacti.Solve_cache.rows_hits
      i.Cacti.Solve_cache.misses
  end

(* The --json success line: the same solution encoding the serve protocol
   uses, plus the sweep summary when --summary asked for it. *)
let emit_json ?summary solution =
  let fields =
    [ ("ok", Jsonx.Bool true); ("solution", solution) ]
    @
    match summary with
    | Some s -> [ ("summary", Cacti_server.Protocol.summary_to_json s) ]
    | None -> []
  in
  print_endline (Jsonx.to_string_pretty (Jsonx.Obj fields));
  Diag.exit_ok

(* Every command body runs under this guard so a stray exception still
   leaves as a one-line diagnostic with a documented exit code. *)
let guarded ~json f =
  try f () with
  | Cacti.Optimizer.No_solution msg ->
      fail_diags ~json
        [ Diag.error ~component:"solver" ~reason:"no_solution" msg ]
        Diag.exit_no_solution
  | Invalid_argument msg ->
      invalid ~json [ Diag.error ~component:"spec" ~reason:"invalid" msg ]
  | Floatx.Non_finite msg ->
      fail_diags ~json
        [ Diag.error ~component:"solver" ~reason:"nonfinite" msg ]
        Diag.exit_no_solution
  | Failure msg ->
      fail_diags ~json
        [ Diag.error ~component:"solver" ~reason:"failure" msg ]
        Diag.exit_no_solution

let with_tech ~json nm f =
  match Cacti_tech.Technology.at_nm nm with
  | exception Invalid_argument msg ->
      invalid ~json
        [ Diag.error ~component:"tech" ~reason:"out_of_range" msg ]
  | tech -> f tech

(* ------------------------------------------------------------------ *)
(* cache                                                                *)
(* ------------------------------------------------------------------ *)

let cache_cmd =
  let size =
    Arg.(required & opt (some size_conv) None
         & info [ "size"; "s" ] ~docv:"SIZE" ~doc:"Total capacity, e.g. 2MB.")
  in
  let assoc = Arg.(value & opt int 8 & info [ "assoc"; "a" ] ~doc:"Associativity.") in
  let block = Arg.(value & opt int 64 & info [ "block"; "b" ] ~doc:"Block size, bytes.") in
  let banks = Arg.(value & opt int 1 & info [ "banks" ] ~doc:"Number of banks.") in
  let ram =
    Arg.(value & opt ram_conv Cacti_tech.Cell.Sram
         & info [ "ram" ] ~doc:"Data-array technology: sram, lp-dram, comm-dram.")
  in
  let mode =
    Arg.(value & opt mode_conv Cacti.Cache_spec.Normal
         & info [ "mode" ] ~doc:"Access mode: normal, sequential or fast.")
  in
  let sleep = Arg.(value & flag & info [ "sleep-tx" ] ~doc:"Model sleep transistors.") in
  let run size assoc block banks ram mode sleep tech params jobs strict
      want_summary json profile =
    guarded ~json @@ fun () ->
    with_tech ~json tech @@ fun tech ->
    match
      Cacti.Cache_spec.create_result ~tech ~capacity_bytes:size ~assoc
        ~block_bytes:block ~n_banks:banks ~ram ~access_mode:mode
        ~sleep_tx:sleep ()
    with
    | Error ds -> invalid ~json ds
    | Ok spec -> (
        profile_start profile;
        match Cacti.Cache_model.solve_diag ?jobs ~params ~strict spec with
        | Error ds -> solve_failed ~json ds
        | Ok (c, s) when json ->
            profile_report ~profile s;
            emit_json
              ?summary:(if want_summary then Some s else None)
              (Cacti_server.Protocol.cache_solution c)
        | Ok (c, s) ->
            Format.printf "cache: %a, %d-way, %dB blocks, %d bank(s), %s@."
              Units.pp_bytes size assoc block banks
              (Cacti_tech.Cell.ram_kind_to_string ram);
            Format.printf "  data organization   %s@."
              (Cacti_array.Org.to_string c.Cacti.Cache_model.data.Cacti_array.Bank.org);
            Format.printf "  access time         %a@." Units.pp_time
              c.Cacti.Cache_model.t_access;
            Format.printf "  random cycle time   %a@." Units.pp_time
              c.Cacti.Cache_model.t_random_cycle;
            Format.printf "  interleave cycle    %a@." Units.pp_time
              c.Cacti.Cache_model.t_interleave;
            (match c.Cacti.Cache_model.dram with
            | Some d ->
                Format.printf "  tRCD / CAS / tRC    %a / %a / %a@." Units.pp_time
                  d.Cacti_array.Bank.t_rcd Units.pp_time d.Cacti_array.Bank.t_cas
                  Units.pp_time d.Cacti_array.Bank.t_rc
            | None -> ());
            Format.printf "  read energy / line  %a@." Units.pp_energy
              c.Cacti.Cache_model.e_read;
            Format.printf "  write energy / line %a@." Units.pp_energy
              c.Cacti.Cache_model.e_write;
            Format.printf "  leakage power       %a@." Units.pp_power
              c.Cacti.Cache_model.p_leakage;
            if c.Cacti.Cache_model.p_refresh > 0. then
              Format.printf "  refresh power       %a@." Units.pp_power
                c.Cacti.Cache_model.p_refresh;
            Format.printf "  area                %a (efficiency %.0f%%)@."
              Units.pp_area c.Cacti.Cache_model.area
              (100. *. c.Cacti.Cache_model.area_efficiency);
            print_summary want_summary s;
            profile_report ~profile s;
            Diag.exit_ok)
  in
  let term =
    Term.(
      const run $ size $ assoc $ block $ banks $ ram $ mode $ sleep
      $ tech_nm $ opt_params $ jobs $ strict $ summary $ json_flag
      $ profile_flag)
  in
  Cmd.v
    (Cmd.info "cache"
       ~doc:"Model a cache (SRAM, LP-DRAM or COMM-DRAM data array).")
    term

(* ------------------------------------------------------------------ *)
(* ram                                                                  *)
(* ------------------------------------------------------------------ *)

let ram_cmd =
  let size =
    Arg.(required & opt (some size_conv) None
         & info [ "size"; "s" ] ~docv:"SIZE" ~doc:"Capacity, e.g. 256KB.")
  in
  let word = Arg.(value & opt int 64 & info [ "word-bits" ] ~doc:"Port width, bits.") in
  let banks = Arg.(value & opt int 1 & info [ "banks" ] ~doc:"Number of banks.") in
  let ram =
    Arg.(value & opt ram_conv Cacti_tech.Cell.Sram & info [ "ram" ] ~doc:"Technology.")
  in
  let run size word banks ram tech params jobs strict want_summary json
      profile =
    guarded ~json @@ fun () ->
    with_tech ~json tech @@ fun tech ->
    match
      Cacti.Ram_model.validate
        {
          Cacti.Ram_model.capacity_bytes = size;
          word_bits = word;
          n_banks = banks;
          ram;
          sleep_tx = false;
          tech;
        }
    with
    | Error ds -> invalid ~json ds
    | Ok spec -> (
        profile_start profile;
        match Cacti.Ram_model.solve_diag ?jobs ~params ~strict spec with
        | Error ds -> solve_failed ~json ds
        | Ok (r, s) when json ->
            profile_report ~profile s;
            emit_json
              ?summary:(if want_summary then Some s else None)
              (Cacti_server.Protocol.ram_solution r)
        | Ok (r, s) ->
            Format.printf "plain RAM: %a x %d-bit port, %s@." Units.pp_bytes size
              word
              (Cacti_tech.Cell.ram_kind_to_string ram);
            Format.printf "  organization      %s@."
              (Cacti_array.Org.to_string r.Cacti.Ram_model.bank.Cacti_array.Bank.org);
            Format.printf "  access time       %a@." Units.pp_time
              r.Cacti.Ram_model.t_access;
            Format.printf "  random cycle      %a@." Units.pp_time
              r.Cacti.Ram_model.t_random_cycle;
            Format.printf "  read energy       %a@." Units.pp_energy
              r.Cacti.Ram_model.e_read;
            Format.printf "  leakage           %a@." Units.pp_power
              r.Cacti.Ram_model.p_leakage;
            if r.Cacti.Ram_model.p_refresh > 0. then
              Format.printf "  refresh           %a@." Units.pp_power
                r.Cacti.Ram_model.p_refresh;
            Format.printf "  area              %a (efficiency %.0f%%)@."
              Units.pp_area r.Cacti.Ram_model.area
              (100. *. r.Cacti.Ram_model.area_efficiency);
            print_summary want_summary s;
            profile_report ~profile s;
            Diag.exit_ok)
  in
  let term =
    Term.(
      const run $ size $ word $ banks $ ram $ tech_nm $ opt_params $ jobs
      $ strict $ summary $ json_flag $ profile_flag)
  in
  Cmd.v (Cmd.info "ram" ~doc:"Model a plain (non-cache) memory macro.") term

(* ------------------------------------------------------------------ *)
(* mainmem                                                              *)
(* ------------------------------------------------------------------ *)

let mainmem_cmd =
  let bits =
    Arg.(required & opt (some bits_conv) None
         & info [ "bits" ] ~docv:"BITS" ~doc:"Chip capacity, e.g. 8Gb.")
  in
  let banks = Arg.(value & opt int 8 & info [ "banks" ] ~doc:"Banks per chip.") in
  let io = Arg.(value & opt int 8 & info [ "io" ] ~doc:"Data pins (x4/x8/x16).") in
  let page = Arg.(value & opt int 8192 & info [ "page" ] ~doc:"Page size, bits.") in
  let prefetch = Arg.(value & opt int 8 & info [ "prefetch" ] ~doc:"Internal prefetch.") in
  let burst = Arg.(value & opt int 8 & info [ "burst" ] ~doc:"Burst length.") in
  let iface =
    Arg.(value
         & opt (enum [ ("ddr3", Cacti.Mainmem.ddr3); ("ddr4", Cacti.Mainmem.ddr4) ])
             Cacti.Mainmem.ddr3
         & info [ "interface" ] ~doc:"IO interface: ddr3 or ddr4.")
  in
  let run bits banks io page prefetch burst iface tech jobs strict
      want_summary json profile =
    guarded ~json @@ fun () ->
    with_tech ~json tech @@ fun tech ->
    match
      Cacti.Mainmem.create_result ~tech ~capacity_bits:bits ~n_banks:banks
        ~io_bits:io ~page_bits:page ~prefetch ~burst ~interface:iface ()
    with
    | Error ds -> invalid ~json ds
    | Ok chip -> (
        profile_start profile;
        match Cacti.Mainmem.solve_diag ?jobs ~strict chip with
        | Error ds -> solve_failed ~json ds
        | Ok (m, s) when json ->
            profile_report ~profile s;
            emit_json
              ?summary:(if want_summary then Some s else None)
              (Cacti_server.Protocol.mainmem_solution m)
        | Ok (m, s) ->
            Format.printf "main-memory chip: %d banks, x%d, %s@." banks io
              m.Cacti.Mainmem.chip.Cacti.Mainmem.interface.Cacti.Mainmem.name;
            Format.printf "  bank organization %s@."
              (Cacti_array.Org.to_string m.Cacti.Mainmem.bank.Cacti_array.Bank.org);
            Format.printf "  tRCD / CAS        %a / %a@." Units.pp_time
              m.Cacti.Mainmem.t_rcd Units.pp_time m.Cacti.Mainmem.t_cas;
            Format.printf "  tRAS / tRP / tRC  %a / %a / %a@." Units.pp_time
              m.Cacti.Mainmem.t_ras Units.pp_time m.Cacti.Mainmem.t_rp
              Units.pp_time m.Cacti.Mainmem.t_rc;
            Format.printf "  tRRD              %a@." Units.pp_time
              m.Cacti.Mainmem.t_rrd;
            Format.printf "  ACT / RD / WR     %a / %a / %a@." Units.pp_energy
              m.Cacti.Mainmem.e_activate Units.pp_energy m.Cacti.Mainmem.e_read
              Units.pp_energy m.Cacti.Mainmem.e_write;
            Format.printf "  refresh / standby %a / %a@." Units.pp_power
              m.Cacti.Mainmem.p_refresh Units.pp_power m.Cacti.Mainmem.p_standby;
            Format.printf "  die area          %a (efficiency %.0f%%)@."
              Units.pp_area m.Cacti.Mainmem.area
              (100. *. m.Cacti.Mainmem.area_efficiency);
            print_summary want_summary s;
            profile_report ~profile s;
            Diag.exit_ok)
  in
  let term =
    Term.(
      const run $ bits $ banks $ io $ page $ prefetch $ burst $ iface
      $ tech_nm $ jobs $ strict $ summary $ json_flag $ profile_flag)
  in
  Cmd.v
    (Cmd.info "mainmem" ~doc:"Model a main-memory DRAM chip (Section 2.1).")
    term

let () =
  Tuning.solver_gc ();
  let info =
    Cmd.info "cacti_d" ~version:"1.0"
      ~doc:"CACTI-D: area/delay/energy models for SRAM, LP-DRAM and \
            COMM-DRAM caches, memories and main-memory chips"
      ~exits:
        [
          Cmd.Exit.info Diag.exit_ok ~doc:"on success.";
          Cmd.Exit.info Diag.exit_usage ~doc:"on command-line parsing errors.";
          Cmd.Exit.info Diag.exit_invalid_spec
            ~doc:"on an invalid memory specification.";
          Cmd.Exit.info Diag.exit_no_solution
            ~doc:"when the design space admits no valid organization.";
        ]
  in
  let group = Cmd.group info [ cache_cmd; ram_cmd; mainmem_cmd ] in
  (* Terms return the exit code themselves; cmdliner only reports usage
     problems, which all map to exit 1. *)
  match Cmd.eval_value group with
  | Ok (`Ok code) -> exit code
  | Ok (`Version | `Help) -> exit Diag.exit_ok
  | Error _ -> exit Diag.exit_usage
