(* cacti_replay: replay real memory-access traces through the cache
   hierarchy with real CPU replacement policies.

     cacti_replay run --trace refs.trc --cpu skl --out results.csv
     cacti_replay run --trace big.crtb --l3-policy qlru_h11_m1_r0_u0
     cacti_replay convert --src refs.trc --dst refs.crtb
     echo "R 0x1000" | cacti_replay run --trace -

   Exit codes (shared with cacti_cli / llc_study): 0 success, 1 usage
   error, 2 invalid input (malformed trace, unknown policy or CPU name,
   bad geometry, I/O error).  Errors are rendered as one structured
   diagnostic per line on stderr — never a backtrace, and never a silent
   fallback (CacheTrace silently replaces an unknown --cpu with Coffee
   Lake; this tool refuses with the valid names listed). *)

open Cmdliner
open Mcreplay

let fail_diags ds code =
  prerr_endline (Cacti_util.Diag.render ds);
  code

type output_kind = Csv | Jsonl | No_output

let output_conv =
  Arg.enum [ ("csv", Csv); ("jsonl", Jsonl); ("none", No_output) ]

let format_conv =
  Arg.enum
    [ ("auto", None); ("text", Some Trace_io.Text);
      ("binary", Some Trace_io.Binary) ]

(* Policies resolve in layers: all-LRU default, then the --cpu preset,
   then per-level overrides.  Unknown names are typed refusals (exit 2). *)
let resolve_policies cpu l1 l2 l3 =
  let ( let* ) = Result.bind in
  let* base =
    match cpu with
    | None ->
        Ok (Mcsim.Policy.Lru, Mcsim.Policy.Lru, Mcsim.Policy.Lru)
    | Some name ->
        let* p = Mcsim.Policy.preset_of_string name in
        Ok (p.Mcsim.Policy.l1, p.Mcsim.Policy.l2, p.Mcsim.Policy.l3)
  in
  let override current = function
    | None -> Ok current
    | Some name -> Mcsim.Policy.of_string name
  in
  let b1, b2, b3 = base in
  let* p1 = override b1 l1 in
  let* p2 = override b2 l2 in
  let* p3 = override b3 l3 in
  Ok (p1, p2, p3)

(* A failure to open or write an output, tagged [output/<reason>]. *)
exception Output_error of string * string

let on_output reason f x =
  try f x with Sys_error msg -> raise (Output_error (reason, msg))

let run_replay trace format cpu l1 l2 l3 cores line_bytes mem_latency
    output out summary_file quiet jobs =
  match resolve_policies cpu l1 l2 l3 with
  | Error d -> fail_diags [ d ] Cacti_util.Diag.exit_invalid_spec
  | Ok (p1, p2, p3) -> (
      let cfg =
        Replayer.with_policies ~l1:p1 ~l2:p2 ~l3:p3
          {
            Replayer.default_config with
            Replayer.n_cores = cores;
            line_bytes;
            mem_latency;
          }
      in
      (* A run that fails closes its output files and removes those it
         created, so no partial output reads as a result; a path that
         existed before (a device, a pipe, an old file) is left in place. *)
      let opened = ref [] in
      let open_output reason path =
        let existed = Sys.file_exists path in
        let oc = on_output reason open_out path in
        opened := (path, existed, oc) :: !opened;
        oc
      in
      try
        let render : Replayer.render option =
          match output with
          | Csv ->
              Some
                (fun buf ~seq ~tid ~write ~addr o ->
                  Report.append_csv_row buf ~seq ~tid ~write ~addr
                    ~line_bytes o)
          | Jsonl ->
              Some
                (fun buf ~seq ~tid ~write ~addr o ->
                  Report.append_jsonl_row buf ~seq ~tid ~write ~addr
                    ~line_bytes o)
          | No_output -> None
        in
        (* A trace file is loaded before the outputs are opened, and both
           outputs are opened before the replay starts: an unreadable
           trace or an unwritable output is refused before anything is
           written. *)
        let replay =
          match trace with
          | "-" ->
              (* stdin is read once: it streams serially. *)
              let records ~f =
                ignore
                  (Trace_io.iter_channel ~path:"<stdin>"
                     (Option.value format ~default:Trace_io.Text)
                     stdin ~f
                    : int)
              in
              fun ~emit -> (Replayer.run_serial ?render ~emit cfg records, [])
          | path ->
              (* Without per-access output a file replays sharded on
                 the low set-index bits, each shard streaming it; rows
                 replay serially.  Output is byte-identical for any
                 --jobs. *)
              let source = Trace_io.load_source ?format path in
              fun ~emit -> Replayer.run_sharded ?jobs ?render ~emit cfg source
        in
        let summary_oc =
          Option.map (open_output "summary_write_error") summary_file
        in
        let oc =
          match out with
          | None | Some "-" -> stdout
          | Some p -> open_output "out_write_error" p
        in
        let emit = on_output "out_write_error" (output_string oc) in
        if output = Csv then emit (Report.csv_header ^ "\n");
        let s, diags = replay ~emit in
        on_output "out_write_error" flush oc;
        if diags <> [] then prerr_endline (Cacti_util.Diag.render diags);
        Option.iter
          (fun soc ->
            let json =
              Cacti_util.Jsonx.to_string_pretty
                (Report.summary_json ~config:cfg s)
            in
            on_output "summary_write_error" (output_string soc) (json ^ "\n");
            on_output "summary_write_error" close_out soc)
          summary_oc;
        if oc != stdout then on_output "out_write_error" close_out oc;
        if not quiet then begin
          Printf.eprintf "replayed %d accesses\n" s.Replayer.accesses;
          prerr_string (Report.summary_human s)
        end;
        Cacti_util.Diag.exit_ok
      with e -> (
        List.iter
          (fun (path, existed, oc) ->
            close_out_noerr oc;
            if not existed then try Sys.remove path with Sys_error _ -> ())
          !opened;
        match e with
        | Output_error (reason, msg) ->
            fail_diags
              [ Cacti_util.Diag.error ~component:"output" ~reason msg ]
              Cacti_util.Diag.exit_invalid_spec
        | Trace_io.Parse_error { path; line; msg } ->
            fail_diags
              [
                Cacti_util.Diag.errorf ~component:"replay"
                  ~reason:"trace_parse_error" "%s:%d: %s" path line msg;
              ]
              Cacti_util.Diag.exit_invalid_spec
        | Sys_error msg ->
            fail_diags
              [ Cacti_util.Diag.error ~component:"replay" ~reason:"io_error" msg ]
              Cacti_util.Diag.exit_invalid_spec
        | Invalid_argument msg ->
            fail_diags
              [
                Cacti_util.Diag.error ~component:"replay"
                  ~reason:"invalid_config" msg;
              ]
              Cacti_util.Diag.exit_invalid_spec
        | e -> raise e))

let run_convert src dst to_format =
  try
    let src_format = Trace_io.detect_file src in
    let dst_format =
      match to_format with
      | Some fmt -> fmt
      | None -> (
          (* default: flip the encoding *)
          match src_format with
          | Trace_io.Text -> Trace_io.Binary
          | Trace_io.Binary -> Trace_io.Text)
    in
    match Trace_io.convert ~src ~src_format ~dst ~dst_format () with
    | Error d -> fail_diags [ d ] Cacti_util.Diag.exit_invalid_spec
    | Ok n ->
        Printf.printf "converted %d records (%s -> %s) into %s\n" n
          (Trace_io.format_to_string src_format)
          (Trace_io.format_to_string dst_format)
          dst;
        Cacti_util.Diag.exit_ok
  with
  | Trace_io.Parse_error { path; line; msg } ->
      fail_diags
        [
          Cacti_util.Diag.errorf ~component:"replay"
            ~reason:"trace_parse_error" "%s:%d: %s" path line msg;
        ]
        Cacti_util.Diag.exit_invalid_spec
  | Sys_error msg ->
      fail_diags
        [ Cacti_util.Diag.error ~component:"replay" ~reason:"io_error" msg ]
        Cacti_util.Diag.exit_invalid_spec

(* ---------------- command line ---------------- *)

let trace_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Trace to replay: text (R/W 0xADDR [tid]) or binary (converted \
           with $(b,convert)); format auto-detected.  $(b,-) reads text \
           from stdin.")

let format_arg =
  Arg.(
    value & opt format_conv None
    & info [ "format" ] ~docv:"FMT"
        ~doc:"Force the trace format: auto (default), text or binary.")

let cpu_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cpu" ] ~docv:"NAME"
        ~doc:
          "CPU preset selecting per-level policies: \
           nehalem|nhm, sandybridge|snb, ivybridge|ivb, haswell|hsw, \
           skylake|skl, coffeelake|cfl.  Unknown names are rejected with \
           the valid list (exit 2).")

let policy_arg level =
  Arg.(
    value
    & opt (some string) None
    & info [ level ^ "-policy" ] ~docv:"POLICY"
        ~doc:
          (Printf.sprintf
             "Replacement policy for %s, overriding $(b,--cpu): lru, \
              tree_plru, mru, mru_n, qlru_hXY_mZ_rW_uV."
             (String.uppercase_ascii level)))

let run_cmd =
  let cores =
    Arg.(
      value & opt int 1
      & info [ "cores" ] ~docv:"N"
          ~doc:"Cores (thread ids map round-robin; private L1/L2 each).")
  in
  let line_bytes =
    Arg.(value & opt int 64 & info [ "line-bytes" ] ~doc:"Cache line size.")
  in
  let mem_latency =
    Arg.(
      value
      & opt int Replayer.default_config.Replayer.mem_latency
      & info [ "mem-latency" ] ~doc:"Memory latency in cycles.")
  in
  let output =
    Arg.(
      value & opt output_conv Csv
      & info [ "output" ] ~docv:"KIND"
          ~doc:"Per-access output: csv (default), jsonl, or none.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Write per-access output here (default: stdout).")
  in
  let summary_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "summary-json" ] ~docv:"FILE"
          ~doc:"Also write the aggregate summary as JSON.")
  in
  let quiet =
    Arg.(
      value & flag
      & info [ "quiet"; "q" ] ~doc:"Suppress the stderr summary.")
  in
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Worker domains for sharded replay with $(b,--output none) \
             (default: cores - 1), capped at the host's recommended \
             domain count: more only contend for the same cores.  The \
             file trace is partitioned on the set-index bits shared by \
             every cache level, each shard streaming the whole file, so \
             the summary is byte-identical for any value.  Per-access \
             output (csv, jsonl) always replays serially, as does \
             stdin.")
  in
  let term =
    Term.(
      const run_replay $ trace_arg $ format_arg $ cpu_arg
      $ policy_arg "l1" $ policy_arg "l2" $ policy_arg "l3" $ cores
      $ line_bytes $ mem_latency $ output $ out $ summary_file $ quiet
      $ jobs)
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Replay a trace through the L1/L2/L3 hierarchy and emit \
          deterministic per-access results.")
    term

let convert_cmd =
  let src =
    Arg.(
      required
      & opt (some string) None
      & info [ "src" ] ~docv:"FILE" ~doc:"Input trace (format detected).")
  in
  let dst =
    Arg.(
      required
      & opt (some string) None
      & info [ "dst" ] ~docv:"FILE" ~doc:"Output trace.")
  in
  let to_format =
    Arg.(
      value
      & opt
          (some (Arg.enum
                   [ ("text", Trace_io.Text); ("binary", Trace_io.Binary) ]))
          None
      & info [ "to" ] ~docv:"FMT"
          ~doc:"Target format (default: the opposite of the input's).")
  in
  Cmd.v
    (Cmd.info "convert"
       ~doc:"Convert a trace between the text and binary encodings.")
    Term.(const run_convert $ src $ dst $ to_format)

let cmd =
  let info =
    Cmd.info "cacti_replay" ~version:"1.0"
      ~doc:
        "Trace-driven cache-hierarchy replay with real CPU replacement \
         policies"
      ~exits:
        [
          Cmd.Exit.info Cacti_util.Diag.exit_ok ~doc:"on success.";
          Cmd.Exit.info Cacti_util.Diag.exit_usage
            ~doc:"on command-line parsing errors.";
          Cmd.Exit.info Cacti_util.Diag.exit_invalid_spec
            ~doc:
              "on a malformed trace, unknown policy or CPU name, bad \
               geometry, or I/O error.";
        ]
  in
  Cmd.group info [ run_cmd; convert_cmd ]

let () =
  match Cmd.eval_value cmd with
  | Ok (`Ok code) -> exit code
  | Ok (`Version | `Help) -> exit Cacti_util.Diag.exit_ok
  | Error _ -> exit Cacti_util.Diag.exit_usage
