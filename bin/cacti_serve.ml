(* cacti_serve: the persistent solve service.

     cacti_serve --batch < requests.jsonl > responses.jsonl
     cacti_serve --socket /run/cacti.sock --cache-file warm.cache --workers 2
     cacti_serve --http 127.0.0.1:8080 --presolve

   One JSONL request per line in, one response per line out (protocol in
   EXPERIMENTS.md).  Batch mode answers stdin sequentially and exits at
   EOF; socket mode serves concurrent clients over a Unix-domain socket
   and/or HTTP/1.1 (POST /solve, GET /stats, GET /healthz) until
   SIGINT/SIGTERM.  With --cache-file the Solve_cache memo table is
   loaded at startup (a corrupt or mismatched file degrades to a cold
   start with a warning) and saved atomically at shutdown, so restarts
   answer their first requests from the warm cache; --presolve
   walks the default tech-node x size x associativity grid at idle
   priority so in-grid requests are warm before the first client asks.

   Exit codes: 0 on a clean run, 1 on usage errors or a failed socket
   bind.  Per-request failures are in-band: every input line yields a
   response with "ok" false and structured diagnostics, never a crash. *)

open Cmdliner
open Cacti_util
open Cacti_server

let log_diags ds =
  List.iter (fun d -> prerr_endline (Diag.to_string d)) ds

(* Selected-bank memo entries the daemon keeps: without a cap, traffic
   with distinct specs grows the memo for the life of the process.  A
   persisted entry takes about 1.4 KB, so a full memo saves to about
   6 MB; 4096 matches the response cache's default. *)
let solve_cache_cap = 4096

let run batch socket http cache_file jobs queue_bound resp_cache workers
    drain_ms presolve presolve_period =
  match (batch, socket, http) with
  | false, None, None ->
      prerr_endline
        "cacti_serve: pick a transport: --batch, --socket PATH or --http \
         ADDR";
      Diag.exit_usage
  | true, Some _, _ | true, _, Some _ ->
      prerr_endline
        "cacti_serve: --batch and --socket/--http are exclusive";
      Diag.exit_usage
  | _ -> (
      let service = Service.create ?jobs ?queue_bound ?resp_cache () in
      (* Before the load, so a larger file keeps only its most recently
         used entries. *)
      Cacti.Solve_cache.set_capacity (Some solve_cache_cap);
      Option.iter (fun f -> log_diags (Persist.load f)) cache_file;
      let save_cache () =
        Option.iter (fun f -> log_diags (Persist.save f)) cache_file
      in
      if batch then begin
        let n = Server.run_batch service stdin stdout in
        Printf.eprintf "cacti_serve: answered %d request(s)\n%!" n;
        save_cache ();
        Diag.exit_ok
      end
      else
        match Server.start ?workers ?path:socket ?http service () with
        | exception Unix.Unix_error (e, _, _) ->
            Printf.eprintf "cacti_serve: cannot bind: %s\n"
              (Unix.error_message e);
            Diag.exit_usage
        | exception Invalid_argument msg ->
            Printf.eprintf "cacti_serve: %s\n" msg;
            Diag.exit_usage
        | server ->
            (* The handler only records the request: an OCaml signal
               handler runs in whichever thread next re-enters OCaml
               code, which could be a solver worker — and Server.stop
               joins the workers, so draining from the handler can
               deadlock on its own thread (or never run at all while
               every thread is parked in a blocking call). *)
            let stop_requested = Atomic.make false in
            let request_stop _ = Atomic.set stop_requested true in
            Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
            Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
            Option.iter
              (fun path ->
                Printf.eprintf "cacti_serve: listening on %s\n%!" path)
              socket;
            Option.iter
              (fun port ->
                let host = match http with Some (h, _) -> h | None -> "" in
                Printf.eprintf "cacti_serve: http on %s:%d\n%!" host port)
              (Server.http_port server);
            let presolver =
              if presolve then
                Some
                  (Presolve.start ?period_s:presolve_period
                     ~on_pass:save_cache service)
              else None
            in
            (* The main thread polls instead of parking in Server.wait:
               its 50 ms re-entries into OCaml are what guarantee the
               handler a place to run. *)
            while not (Atomic.get stop_requested) do
              Thread.delay 0.05
            done;
            (* Stop the pre-solver before draining so its in-flight
               point cannot race the cache snapshot. *)
            Option.iter Presolve.stop presolver;
            (* Graceful drain: refuse new requests, let in-flight work
               finish (or cancel it past the budget), then save the
               warm cache against a quiesced memo table. *)
            Server.stop ~drain_ms server;
            save_cache ();
            Diag.exit_ok)

let batch =
  Arg.(value & flag
       & info [ "batch" ]
           ~doc:"Answer JSONL requests from stdin on stdout, in order, then \
                 exit at EOF.")

let socket =
  Arg.(value & opt (some string) None
       & info [ "socket" ] ~docv:"PATH"
           ~doc:"Serve concurrent clients on a Unix-domain socket at $(docv).")

(* "IP:PORT" (or bare "PORT", defaulting to loopback).  Numeric IPs
   only: the listener binds with inet_addr_of_string, no resolver. *)
let http_addr_conv =
  let parse s =
    let host, port_s =
      match String.rindex_opt s ':' with
      | Some i ->
          ( String.sub s 0 i,
            String.sub s (i + 1) (String.length s - i - 1) )
      | None -> ("", s)
    in
    let host = if host = "" then "127.0.0.1" else host in
    match int_of_string_opt port_s with
    | Some p when p >= 0 && p < 65536 -> Ok (host, p)
    | _ ->
        Error
          (`Msg (Printf.sprintf "bad HTTP address %S (want IP:PORT)" s))
  in
  let print fmt (h, p) = Format.fprintf fmt "%s:%d" h p in
  Arg.conv (parse, print)

let http =
  Arg.(value & opt (some http_addr_conv) None
       & info [ "http" ] ~docv:"ADDR"
           ~doc:"Serve HTTP/1.1 on $(docv) (IP:PORT, or PORT on loopback; \
                 port 0 binds an ephemeral port): POST /solve carries one \
                 JSONL request per call, GET /stats and GET /healthz probe \
                 the server.  Combines with --socket.")

let cache_file =
  Arg.(value & opt (some string) None
       & info [ "cache-file" ] ~docv:"FILE"
           ~doc:"Load the solve memo table from $(docv) at startup and save \
                 it there at shutdown (atomic rename; a corrupt file means \
                 a cold start, never a crash).")

let jobs =
  Arg.(value & opt (some int) None
       & info [ "jobs"; "j" ] ~docv:"N"
           ~doc:"Worker domains per design-space sweep (default: cores - 1); \
                 a request's params.jobs overrides it.")

let queue_bound =
  Arg.(value & opt (some int) None
       & info [ "queue" ] ~docv:"N"
           ~doc:"Admission-queue bound (default 64): requests beyond it \
                 are answered serve/queue_full immediately.")

let resp_cache =
  Arg.(value & opt (some int) None
       & info [ "resp-cache" ] ~docv:"N"
           ~doc:"Response-cache entries (default 4096; 0 disables the warm \
                 fast path).")

let workers =
  Arg.(value & opt (some int) None
       & info [ "workers" ] ~docv:"N"
           ~doc:"Solver threads draining the admission queue in socket/http \
                 mode (default 1; each solve is already parallel across \
                 domains).")

let drain_ms =
  Arg.(value & opt float 2000.
       & info [ "drain-ms" ] ~docv:"MS"
           ~doc:"On SIGTERM/SIGINT, let admitted requests finish for up to \
                 $(docv) milliseconds before cancelling what is still \
                 solving (answered serve/draining); then save the cache and \
                 exit 0.")

let presolve =
  Arg.(value & flag
       & info [ "presolve" ]
           ~doc:"Pre-solve the default tech-node x capacity x associativity \
                 grid in the background at idle priority, so in-grid \
                 requests are answered warm.  Progress shows under \
                 \"presolve\" in the stats.")

let presolve_period =
  Arg.(value & opt (some float) None
       & info [ "presolve-period" ] ~docv:"S"
           ~doc:"Re-walk the pre-solve grid every $(docv) seconds (default: \
                 a single pass).")

let () =
  Tuning.solver_gc ();
  (* Phase accounting is cheap (a Hashtbl update per phase) and the stats
     endpoint reports it, so the server always keeps it on. *)
  Profile.set_enabled true;
  let info =
    Cmd.info "cacti_serve" ~version:"1.0"
      ~doc:"persistent CACTI-D solve service speaking JSONL (batch stdin, \
            Unix-domain socket, or HTTP/1.1)"
      ~exits:
        [
          Cmd.Exit.info Diag.exit_ok ~doc:"on a clean run.";
          Cmd.Exit.info Diag.exit_usage
            ~doc:"on bad command lines or a failed socket bind.";
        ]
  in
  let term =
    Term.(
      const run $ batch $ socket $ http $ cache_file $ jobs $ queue_bound
      $ resp_cache $ workers $ drain_ms $ presolve $ presolve_period)
  in
  match Cmd.eval_value (Cmd.v info term) with
  | Ok (`Ok code) -> exit code
  | Ok (`Version | `Help) -> exit Diag.exit_ok
  | Error _ -> exit Diag.exit_usage
