(* chaos_bench: fault-injected soak of the socket server.

     dune exec bench/chaos_bench.exe -- --quick --out BENCH_chaos.json

   Starts a real socket server in-process, arms the Chaos registry with a
   seeded fault schedule (worker exceptions, slow solves, write EPIPEs,
   torn request lines), and hammers it from concurrent clients that
   misbehave on purpose: garbage bytes, floods past the queue bound,
   mid-request disconnects, already-expired deadlines.  Per seed it then
   asserts the server's contract held:

   - the server never crashed (it still answers on a fresh connection);
   - every response line is well-formed JSON, and no request id was
     answered twice on one connection;
   - with the write/read faults disarmed, a behaved client gets exactly
     one response per request line;
   - the service counters partition exactly: lines = ok + invalid +
     no_solution + internal_error + overloaded + deadline_exceeded +
     draining;
   - a drain stop removes the socket file, and snapshot I/O faults
     degrade to warnings, never crashes.

   The fault schedule is deterministic per --seed, so a failure
   reproduces.  Results land in BENCH_chaos.json (schema in
   EXPERIMENTS.md); any assertion failure makes the exit code nonzero. *)

open Cacti_util
open Cacti_server

let failures = ref []

let check name ok detail =
  if not ok then begin
    failures := (name, detail) :: !failures;
    Printf.eprintf "FAIL [%s]: %s\n%!" name detail
  end

(* ------------------------- raw socket client ------------------------ *)

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd

let send_str fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then
      match Unix.write fd b off (n - off) with
      | w -> go (off + w)
      | exception Unix.Unix_error _ -> ()
  in
  go 0

let send_line fd line = send_str fd (line ^ "\n")

(* Read until the peer is silent for [idle_s] (responses can be dropped
   by injected write faults, so "read exactly N" would hang). *)
let recv_lines ?(idle_s = 2.0) fd =
  let buf = Buffer.create 1024 in
  let chunk = Bytes.create 8192 in
  let rec go () =
    match Unix.select [ fd ] [] [] idle_s with
    | [], _, _ -> ()
    | _ -> (
        match Unix.read fd chunk 0 8192 with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes buf chunk 0 n;
            go ()
        | exception Unix.Unix_error _ -> ())
  in
  go ();
  String.split_on_char '\n' (Buffer.contents buf)
  |> List.filter (fun s -> String.trim s <> "")

(* ---------------------------- workload ------------------------------ *)

let cache_req ~id ?deadline_ms ?(capacity = 8192) () =
  let params =
    match deadline_ms with
    | None -> ""
    | Some d -> Printf.sprintf {|,"params":{"deadline_ms":%g}|} d
  in
  Printf.sprintf
    {|{"id":%d,"kind":"cache","spec":{"tech_nm":45,"capacity_bytes":%d,"assoc":2}%s}|}
    id capacity params

let ram_req ~id =
  Printf.sprintf
    {|{"id":%d,"kind":"ram","spec":{"tech_nm":65,"capacity_bytes":16384,"word_bits":64}}|}
    id

let stats_req ~id = Printf.sprintf {|{"id":%d,"kind":"stats"}|} id

let invalid_req ~id =
  Printf.sprintf
    {|{"id":%d,"kind":"cache","spec":{"tech_nm":45,"capacity_bytes":-3}}|} id

let garbage = [ "}{ not json"; "\x01\x02\xffbinary noise"; "[1,2,"; "null" ]

(* One misbehaving client: a seeded mix of valid solves, stats, garbage,
   invalid specs and tiny deadlines.  Returns (lines sent, responses). *)
let mixed_client ~path ~seed ~client ~n () =
  let rng = Rng.create (Int64.of_int ((seed * 1000) + client)) in
  let fd = connect path in
  let sent = ref 0 in
  for i = 1 to n do
    let id = (client * 100_000) + i in
    let line =
      match Rng.int rng 10 with
      | 0 | 1 | 2 -> cache_req ~id ()
      | 3 | 4 -> ram_req ~id
      | 5 -> stats_req ~id
      | 6 -> invalid_req ~id
      | 7 -> List.nth garbage (Rng.int rng (List.length garbage))
      | _ ->
          (* Cold 1 MiB spec with a 5 ms budget: shed in queue or
             cancelled mid-solve, never memoized. *)
          cache_req ~id ~deadline_ms:5. ~capacity:(1024 * 1024) ()
    in
    send_line fd line;
    incr sent;
    if Rng.bernoulli rng 0.2 then Thread.delay (Rng.float rng 0.005)
  done;
  let resps = recv_lines fd in
  (try Unix.close fd with Unix.Unix_error _ -> ());
  (!sent, resps)

(* Floods far past the queue bound with no pauses: most lines must come
   back as queue_full refusals, none may vanish uncounted. *)
let flood_client ~path ~client ~n () =
  let fd = connect path in
  for i = 1 to n do
    send_line fd (cache_req ~id:((client * 100_000) + i) ())
  done;
  let resps = recv_lines fd in
  (try Unix.close fd with Unix.Unix_error _ -> ());
  (n, resps)

(* Sends and hangs up without reading — the server must drop the
   responses on the closed socket without crashing. *)
let disconnect_client ~path ~client ~n () =
  let fd = connect path in
  for i = 1 to n do
    send_line fd (cache_req ~id:((client * 100_000) + i) ())
  done;
  (* Unterminated tail bytes, then vanish mid-request. *)
  send_str fd {|{"id":1,"kind":"ca|};
  (try Unix.close fd with Unix.Unix_error _ -> ());
  (n + 1, [])

(* --------------------------- assertions ----------------------------- *)

let response_ids resps =
  List.filter_map
    (fun line ->
      match Jsonx.parse line with
      | Error msg ->
          check "response_json" false
            (Printf.sprintf "unparseable response %S: %s" line msg);
          None
      | Ok j ->
          check "response_ok_field"
            (match Jsonx.member "ok" j with
            | Some (Jsonx.Bool _) -> true
            | _ -> false)
            (Printf.sprintf "response without boolean ok: %s" line);
          Option.bind (Jsonx.member "id" j) Jsonx.get_int)
    resps

let check_no_duplicate_ids ~who resps =
  let ids = response_ids resps in
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun id ->
      check "duplicate_response"
        (not (Hashtbl.mem tbl id))
        (Printf.sprintf "%s: id %d answered twice" who id);
      Hashtbl.replace tbl id ())
    ids

let get_int path j =
  let rec go j = function
    | [] -> Jsonx.get_int j
    | k :: rest -> Option.bind (Jsonx.member k j) (fun v -> go v rest)
  in
  Option.value (go j path) ~default:(-1)

let check_partition stats_solution =
  let lines = get_int [ "requests"; "lines" ] stats_solution in
  let outcomes =
    List.map
      (fun k -> get_int [ "outcomes"; k ] stats_solution)
      [
        "ok";
        "invalid";
        "no_solution";
        "internal_error";
        "overloaded";
        "deadline_exceeded";
        "draining";
      ]
  in
  let total = List.fold_left ( + ) 0 outcomes in
  check "counter_partition"
    (lines = total && lines >= 0)
    (Printf.sprintf "lines=%d but outcomes sum to %d (%s)" lines total
       (String.concat "+" (List.map string_of_int outcomes)));
  (lines, total)

let wait_idle service ~budget_s =
  let deadline = Unix.gettimeofday () +. budget_s in
  let rec go () =
    if Service.idle service then true
    else if Unix.gettimeofday () > deadline then Service.idle service
    else begin
      Thread.delay 0.01;
      go ()
    end
  in
  go ()

(* ---------------------------- one seed ------------------------------ *)

let run_seed ~quick ~seed =
  Chaos.reset ();
  Chaos.seed seed;
  Cacti.Solve_cache.clear ();
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "cacti_chaos_%d_%d.sock" (Unix.getpid ()) seed)
  in
  if Sys.file_exists path then Sys.remove path;
  let queue_bound = 8 in
  let service = Service.create ~queue_bound ~log:(fun _ -> ()) () in
  let server = Server.start ~workers:2 service ~path () in
  (* Phase A: all faults armed, misbehaving clients. *)
  Chaos.arm "service.worker" ~prob:0.05 Chaos.Exn;
  Chaos.arm "service.slow_solve" ~prob:0.10 (Chaos.Delay 0.02);
  Chaos.arm "server.write" ~prob:0.05 Chaos.Epipe;
  Chaos.arm "server.read" ~prob:0.05 Chaos.Mangle;
  let n = if quick then 12 else 40 in
  let clients =
    [
      (fun () -> mixed_client ~path ~seed ~client:1 ~n ());
      (fun () -> mixed_client ~path ~seed ~client:2 ~n ());
      (fun () -> mixed_client ~path ~seed ~client:3 ~n ());
      (fun () -> flood_client ~path ~client:4 ~n:(queue_bound * 3) ());
      (fun () -> disconnect_client ~path ~client:5 ~n:3 ());
    ]
  in
  let results = Array.make (List.length clients) (0, []) in
  let threads =
    List.mapi
      (fun i f ->
        Thread.create
          (fun () ->
            match f () with
            | r -> results.(i) <- r
            | exception exn ->
                check "client_crashed" false (Printexc.to_string exn))
          ())
      clients
  in
  List.iter Thread.join threads;
  let chaos_sent = Array.fold_left (fun a (s, _) -> a + s) 0 results in
  let chaos_received =
    Array.fold_left (fun a (_, r) -> a + List.length r) 0 results
  in
  Array.iteri
    (fun i (_, resps) ->
      check_no_duplicate_ids ~who:(Printf.sprintf "client %d" (i + 1)) resps)
    results;
  (* Phase B: faults disarmed; a behaved client gets exactly one
     response per request. *)
  Chaos.reset ();
  ignore (wait_idle service ~budget_s:10.);
  let behaved = if quick then 8 else 24 in
  let fd = connect path in
  for i = 1 to behaved do
    send_line fd (cache_req ~id:(900_000 + i) ())
  done;
  let resps = recv_lines fd in
  (try Unix.close fd with Unix.Unix_error _ -> ());
  check "behaved_one_response_per_line"
    (List.length resps = behaved)
    (Printf.sprintf "sent %d behaved requests, got %d responses" behaved
       (List.length resps));
  let ids = response_ids resps |> List.sort_uniq compare in
  check "behaved_ids_match"
    (List.length ids = behaved)
    (Printf.sprintf "expected %d distinct ids, got %d" behaved
       (List.length ids));
  (* Deterministic deadline exercise on the quiet server (the chaos mix's
     deadline requests can all be flood-refused before ever queueing, and
     a warm stage memo can beat even a tight budget): a guaranteed 50 ms
     slow-solve injection pushes both requests past their 5 ms budgets,
     so they must come back refused as deadline_exceeded, never solved. *)
  Chaos.arm "service.slow_solve" (Chaos.Delay 0.05);
  let fd = connect path in
  send_line fd
    (cache_req ~id:950_001 ~deadline_ms:5. ~capacity:(2 * 1024 * 1024) ());
  send_line fd
    (cache_req ~id:950_002 ~deadline_ms:5. ~capacity:(4 * 1024 * 1024) ());
  let dresps = recv_lines fd in
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Chaos.reset ();
  check "deadline_refused"
    (List.length dresps = 2
    && List.for_all
         (fun line ->
           match Jsonx.parse line with
           | Ok j -> (
               Jsonx.member "ok" j = Some (Jsonx.Bool false)
               &&
               match Jsonx.to_string j |> String.split_on_char '"' with
               | parts -> List.mem "deadline_exceeded" parts)
           | Error _ -> false)
         dresps)
    (Printf.sprintf "expected 2 deadline_exceeded refusals, got [%s]"
       (String.concat " | " dresps));
  (* Final stats on a fresh connection: the server still answers, and
     the counters partition exactly. *)
  check "server_idle" (wait_idle service ~budget_s:10.) "service never idled";
  let fd = connect path in
  send_line fd (stats_req ~id:999_999);
  let stats_resps = recv_lines fd in
  (try Unix.close fd with Unix.Unix_error _ -> ());
  let stats_solution =
    match stats_resps with
    | [ line ] -> (
        match Jsonx.parse line with
        | Ok j -> (
            match Jsonx.member "solution" j with
            | Some s -> s
            | None ->
                check "final_stats" false ("stats response without solution: " ^ line);
                Jsonx.Obj [])
        | Error msg ->
            check "final_stats" false ("unparseable stats response: " ^ msg);
            Jsonx.Obj [])
    | other ->
        check "final_stats" false
          (Printf.sprintf "expected 1 stats response, got %d"
             (List.length other));
        Jsonx.Obj []
  in
  let lines, outcome_sum = check_partition stats_solution in
  let deadline_count = get_int [ "outcomes"; "deadline_exceeded" ] stats_solution in
  check "deadlines_exercised" (deadline_count > 0)
    "no request was shed or cancelled on deadline";
  (* Drain stop: socket gone afterwards. *)
  Server.stop ~drain_ms:500. server;
  check "socket_removed" (not (Sys.file_exists path)) (path ^ " still exists");
  (* Snapshot chaos: injected I/O faults must degrade to warnings. *)
  let cache_file =
    Filename.temp_file (Printf.sprintf "cacti_chaos_%d" seed) ".cache"
  in
  Chaos.arm "persist.save" Chaos.Io_error;
  let ds = Persist.save cache_file in
  check "persist_fault_warns"
    (List.exists (fun d -> d.Diag.severity = Diag.Warning) ds)
    "injected persist.save fault produced no warning";
  Chaos.reset ();
  let ds = Persist.save cache_file in
  check "persist_recovers"
    (List.for_all (fun d -> d.Diag.severity = Diag.Info) ds)
    "clean save after disarm still failed";
  let ds = Persist.load cache_file in
  check "persist_reloads"
    (List.for_all (fun d -> d.Diag.severity = Diag.Info) ds)
    "clean load of the snapshot failed";
  (try Sys.remove cache_file with Sys_error _ -> ());
  let fired = Chaos.points () in
  ignore fired;
  Jsonx.Obj
    [
      ("seed", Jsonx.Int seed);
      ("chaos_lines_sent", Jsonx.Int chaos_sent);
      ("chaos_responses_received", Jsonx.Int chaos_received);
      ("behaved_requests", Jsonx.Int behaved);
      ("lines", Jsonx.Int lines);
      ("outcome_sum", Jsonx.Int outcome_sum);
      ("deadline_exceeded", Jsonx.Int deadline_count);
      ("server_stats", stats_solution);
    ]

let () =
  let quick = ref false in
  let seeds = ref 3 in
  let out = ref "BENCH_chaos.json" in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
        quick := true;
        parse rest
    | "--seeds" :: n :: rest -> (
        match int_of_string_opt n with
        | Some v when v > 0 ->
            seeds := v;
            parse rest
        | _ ->
            Printf.eprintf "--seeds expects a positive integer, got %S\n" n;
            exit 1)
    | "--out" :: f :: rest ->
        out := f;
        parse rest
    | ("--help" | "-h") :: _ ->
        print_endline
          "usage: bench/chaos_bench.exe [--quick] [--seeds N] [--out FILE]";
        exit 0
    | arg :: _ ->
        Printf.eprintf "unknown argument %S\n" arg;
        exit 1
  in
  parse (List.tl (Array.to_list Sys.argv));
  let t0 = Unix.gettimeofday () in
  let per_seed =
    List.init !seeds (fun i ->
        let seed = i + 1 in
        Printf.printf "seed %d: soaking...\n%!" seed;
        let r = run_seed ~quick:!quick ~seed in
        Printf.printf "seed %d: done\n%!" seed;
        r)
  in
  Chaos.reset ();
  let wall = Unix.gettimeofday () -. t0 in
  let doc =
    Jsonx.Obj
      [
        ("schema_version", Jsonx.Int 1);
        ("quick", Jsonx.Bool !quick);
        ("seeds", Jsonx.Int !seeds);
        ("wall_s", Jsonx.num wall);
        ("passed", Jsonx.Bool (!failures = []));
        ( "failures",
          Jsonx.List
            (List.rev_map
               (fun (name, detail) ->
                 Jsonx.Obj
                   [
                     ("check", Jsonx.String name);
                     ("detail", Jsonx.String detail);
                   ])
               !failures) );
        ("per_seed", Jsonx.List per_seed);
      ]
  in
  let oc = open_out !out in
  output_string oc (Jsonx.to_string_pretty doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s (%.1f s)\n%!" !out wall;
  if !failures <> [] then begin
    Printf.eprintf "chaos soak FAILED: %d check(s)\n%!"
      (List.length !failures);
    exit 1
  end
  else print_endline "chaos soak passed"
