(* load_bench: load test for the socket + HTTP transports.

     dune exec bench/load_bench.exe -- --quick --out BENCH_serve.json

   Runs the whole server — both listeners, the admission queue, the solve
   and response caches and the worker threads — under many concurrent
   closed-loop client connections (each keeps exactly one request in
   flight).  One server answers every phase.

   Phases (all latencies are order-statistic percentiles over exact
   per-request wall times):

   - cold/unix   distinct specs; their solutions are the reference the
                 warm answers are checked against
   - warm/unix   the cold specs re-requested many times over the Unix
                 socket
   - warm/http   the same over HTTP/1.1 keep-alive
   - presolve    one idle pass over a grid disjoint from the cold specs,
                 then each grid point requested once over HTTP: the
                 in-grid warm-hit rate

   Gates (thresholds from bench/serve_baseline.json):
   - warm/unix p99 <= warm_p99_ms_slo
   - the response-cache hits added during the warm phases equal the warm
     requests sent: every cold spec was cached, so every warm request is
     answered by the response cache
   - every warm answer's solution equals the cold answer for its spec
   - in-grid warm-hit rate >= presolve_hit_floor
   - cold rps >= cold_rps_floor

   Results land in BENCH_serve.json, schema_version 3 (EXPERIMENTS.md). *)

open Cacti_util
open Cacti_server

(* ----------------------------- workload ----------------------------- *)

(* Distinct, known-solvable specs: power-of-two capacities across the
   built-in nodes, alternating cache and ram kinds. *)
let cold_specs n =
  let nodes = [| 90.; 65.; 45.; 32. |] in
  List.init n (fun i ->
      let nm = nodes.(i mod Array.length nodes) in
      let cap = 16384 lsl (i mod 5) in
      if i mod 3 = 2 then
        Printf.sprintf
          {|{"id":%d,"kind":"ram","spec":{"tech_nm":%g,"capacity_bytes":%d,"word_bits":%d}}|}
          i nm cap (if i mod 2 = 0 then 64 else 128)
      else
        Printf.sprintf
          {|{"id":%d,"kind":"cache","spec":{"tech_nm":%g,"capacity_bytes":%d,"assoc":%d}}|}
          i nm cap (if i mod 2 = 0 then 4 else 8))

(* ---------------------------- percentiles --------------------------- *)

type phase = {
  requests : int;
  wall_s : float;
  rps : float;
  p50_ms : float;
  p90_ms : float;
  p99_ms : float;
  max_ms : float;
}

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let i = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) i))

let phase_of_latencies ~wall_s lat =
  Array.sort compare lat;
  let n = Array.length lat in
  {
    requests = n;
    wall_s;
    rps = (if wall_s > 0. then float_of_int n /. wall_s else 0.);
    p50_ms = percentile lat 0.50;
    p90_ms = percentile lat 0.90;
    p99_ms = percentile lat 0.99;
    max_ms = (if n = 0 then 0. else lat.(n - 1));
  }

let phase_json p =
  Jsonx.Obj
    [
      ("requests", Jsonx.Int p.requests);
      ("wall_s", Jsonx.num p.wall_s);
      ("rps", Jsonx.num p.rps);
      ("p50_ms", Jsonx.num p.p50_ms);
      ("p90_ms", Jsonx.num p.p90_ms);
      ("p99_ms", Jsonx.num p.p99_ms);
      ("max_ms", Jsonx.num p.max_ms);
    ]

(* ------------------------------ clients ----------------------------- *)

(* One JSONL exchange: write the line, read the response line.  Closed
   loop means responses come back in order. *)
let jsonl_roundtrip (ic, oc) line =
  output_string oc line;
  output_char oc '\n';
  flush oc;
  input_line ic

(* One HTTP exchange on a keep-alive connection; returns the body. *)
let http_roundtrip (ic, oc) line =
  output_string oc
    (Printf.sprintf
       "POST /solve HTTP/1.1\r\nHost: bench\r\nContent-Type: \
        application/json\r\nContent-Length: %d\r\n\r\n%s"
       (String.length line) line);
  flush oc;
  let strip_cr s =
    let n = String.length s in
    if n > 0 && s.[n - 1] = '\r' then String.sub s 0 (n - 1) else s
  in
  let status = strip_cr (input_line ic) in
  if String.length status < 12 then failwith ("bad status line: " ^ status);
  let rec headers cl =
    match strip_cr (input_line ic) with
    | "" -> cl
    | h -> (
        match String.index_opt h ':' with
        | Some i
          when String.lowercase_ascii (String.sub h 0 i) = "content-length"
          ->
            headers
              (int_of_string
                 (String.trim
                    (String.sub h (i + 1) (String.length h - i - 1))))
        | _ -> headers cl)
  in
  let cl = headers 0 in
  really_input_string ic cl

type transport = Unix_sock of string | Http of int

let connect = function
  | Unix_sock path ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      (Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd, fd)
  | Http port ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      (Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd, fd)

(* Run [lines.(k)] through a closed-loop client per connection; returns
   (wall_s, merged latencies, responses per connection in send order).
   Connections are opened and threads spawned *before* the clock starts
   (a start barrier releases them together), so the measured window is
   pure request traffic, not setup. *)
let run_clients ~transport ~keep_responses (lines : string list array) =
  let n_conns = Array.length lines in
  let lats = Array.map (fun l -> Array.make (List.length l) 0.) lines in
  let resps = Array.make n_conns [] in
  let errors = Atomic.make 0 in
  let ready = Atomic.make 0 in
  let go = Atomic.make false in
  let client k () =
    let ic, oc, fd = connect transport in
    let roundtrip =
      match transport with
      | Unix_sock _ -> jsonl_roundtrip (ic, oc)
      | Http _ -> http_roundtrip (ic, oc)
    in
    Atomic.incr ready;
    while not (Atomic.get go) do
      Thread.yield ()
    done;
    List.iteri
      (fun i line ->
        let t0 = Unix.gettimeofday () in
        match roundtrip line with
        | resp ->
            lats.(k).(i) <- (Unix.gettimeofday () -. t0) *. 1e3;
            if keep_responses then resps.(k) <- resp :: resps.(k)
        | exception _ -> Atomic.incr errors)
      lines.(k);
    resps.(k) <- List.rev resps.(k);
    try Unix.close fd with Unix.Unix_error _ -> ()
  in
  let threads = List.init n_conns (fun k -> Thread.create (client k) ()) in
  while Atomic.get ready < n_conns do
    Thread.delay 0.001
  done;
  let t0 = Unix.gettimeofday () in
  Atomic.set go true;
  List.iter Thread.join threads;
  let wall = Unix.gettimeofday () -. t0 in
  if Atomic.get errors > 0 then
    failwith
      (Printf.sprintf "%d client roundtrip error(s)" (Atomic.get errors));
  (wall, Array.concat (Array.to_list lats), resps)

(* Deal [lines] round-robin across [n_conns] connections. *)
let deal n_conns lines =
  let buckets = Array.make n_conns [] in
  List.iteri
    (fun i line -> buckets.(i mod n_conns) <- line :: buckets.(i mod n_conns))
    lines;
  Array.map List.rev buckets

(* ------------------------- warm = cold check ------------------------ *)

(* id -> solution (as canonical text); refusals/errors have no entry. *)
let solutions_of_responses resps =
  let tbl = Hashtbl.create 64 in
  Array.iter
    (List.iter (fun body ->
         match Jsonx.parse body with
         | Error _ -> ()
         | Ok j -> (
             match (Jsonx.member "id" j, Jsonx.member "solution" j) with
             | Some (Jsonx.Int id), Some s ->
                 Hashtbl.replace tbl id (Jsonx.to_canonical_string s)
             | _ -> ())))
    resps;
  tbl

(* Warm answers whose solution is not the cold answer for the same id (a
   warm request reuses its cold spec's line, id included); a refusal or an
   error counts too. *)
let mismatches cold resps =
  Array.fold_left
    (List.fold_left (fun n body ->
         match Jsonx.parse body with
         | Ok j -> (
             match (Jsonx.member "id" j, Jsonx.member "solution" j) with
             | Some (Jsonx.Int id), Some s
               when Hashtbl.find_opt cold id
                    = Some (Jsonx.to_canonical_string s) ->
                 n
             | _ -> n + 1)
         | Error _ -> n + 1))
    0 resps

(* ------------------------------- stats ------------------------------ *)

let stat_int stats path =
  let rec go j = function
    | [] -> Jsonx.get_int j
    | k :: rest -> Option.bind (Jsonx.member k j) (fun j -> go j rest)
  in
  Option.value ~default:0 (go stats path)

(* ------------------------------- main ------------------------------- *)

(* Solver threads draining the admission queue (the count the sharding
   A/B in EXPERIMENTS.md held fixed), and the selected-bank memo cap
   cacti_serve runs with. *)
let workers = 4
let solve_cache_cap = 4096

let () =
  let quick = ref false in
  let out = ref "BENCH_serve.json" in
  let baseline_file = ref "bench/serve_baseline.json" in
  let conns = ref None in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
        quick := true;
        parse rest
    | "--out" :: f :: rest ->
        out := f;
        parse rest
    | "--baseline" :: f :: rest ->
        baseline_file := f;
        parse rest
    | "--conns" :: n :: rest ->
        conns := int_of_string_opt n;
        parse rest
    | ("--help" | "-h") :: _ ->
        print_endline
          "usage: bench/load_bench.exe [--quick] [--out FILE] [--baseline \
           FILE] [--conns N]";
        exit 0
    | arg :: _ ->
        Printf.eprintf "unknown argument %S\n" arg;
        exit 1
  in
  parse (List.tl (Array.to_list Sys.argv));
  let quick = !quick in
  let n_conns = Option.value !conns ~default:(if quick then 16 else 100) in
  let n_cold = if quick then 8 else 24 in
  (* Per-connection warm requests: enough that the measured window is
     hundreds of milliseconds, far above scheduler noise. *)
  let warm_per_conn = if quick then 40 else 60 in

  Cacti.Solve_cache.set_capacity (Some solve_cache_cap);
  let service = Service.create ~queue_bound:256 ~log:ignore () in
  let sock = Filename.temp_file "load_bench" ".sock" in
  Sys.remove sock;
  let server =
    Server.start ~workers ~path:sock ~http:("127.0.0.1", 0) service ()
  in
  let http_port =
    match Server.http_port server with
    | Some p -> p
    | None -> failwith "no http port"
  in
  let response_hits () =
    stat_int (Service.stats_json service) [ "response_cache"; "hits" ]
  in

  let specs = cold_specs n_cold in

  (* ---- cold ---- *)
  Printf.printf "cold/unix: %d distinct spec(s) over %d conn(s)...\n%!"
    n_cold n_conns;
  let wall, lat, resps =
    run_clients ~transport:(Unix_sock sock) ~keep_responses:true
      (deal (min n_conns n_cold) specs)
  in
  let cold = phase_of_latencies ~wall_s:wall lat in
  let cold_solutions = solutions_of_responses resps in
  Printf.printf "cold/unix: %.1f req/s, p99 %.1f ms, %d of %d solved\n%!"
    cold.rps cold.p99_ms
    (Hashtbl.length cold_solutions)
    n_cold;

  (* ---- warm phases ---- *)
  let spec_arr = Array.of_list specs in
  let warm_deal =
    Array.init n_conns (fun k ->
        List.init warm_per_conn (fun i ->
            spec_arr.((k + i) mod Array.length spec_arr)))
  in
  let warm_sent = ref 0 and warm_mismatches = ref 0 in
  let run_warm name transport =
    Printf.printf "warm/%s: %d request(s) over %d conn(s)...\n%!" name
      (n_conns * warm_per_conn) n_conns;
    let wall, lat, resps =
      run_clients ~transport ~keep_responses:true warm_deal
    in
    let p = phase_of_latencies ~wall_s:wall lat in
    warm_sent := !warm_sent + p.requests;
    warm_mismatches := !warm_mismatches + mismatches cold_solutions resps;
    Printf.printf "warm/%s: %.0f req/s, p50 %.2f ms, p99 %.2f ms\n%!" name
      p.rps p.p50_ms p.p99_ms;
    p
  in
  let hits_before_warm = response_hits () in
  let warm_unix = run_warm "unix" (Unix_sock sock) in
  let warm_http = run_warm "http" (Http http_port) in
  let warm_hits = response_hits () - hits_before_warm in
  let warm_sent = !warm_sent and warm_mismatches = !warm_mismatches in
  Printf.printf
    "warm: %d response-cache hit(s) for %d request(s), %d answer(s) \
     differing from cold\n%!"
    warm_hits warm_sent warm_mismatches;

  (* ---- pre-solve: a grid disjoint from the cold specs (interpolated
     node), one idle pass, then every point requested once over HTTP ---- *)
  let grid =
    {
      Presolve.nodes_nm = [ 55. ];
      capacities =
        (if quick then [ 32 * 1024; 64 * 1024 ]
         else [ 32 * 1024; 64 * 1024; 128 * 1024 ]);
      assocs = [ 4; 8 ];
    }
  in
  let n_points = List.length (Presolve.points grid) in
  Printf.printf "presolve: one pass over %d grid point(s)...\n%!" n_points;
  let t0 = Unix.gettimeofday () in
  let presolver = Presolve.start ~grid service in
  let pass_done () =
    match Jsonx.member "passes" (Presolve.stats_json presolver) with
    | Some (Jsonx.Int p) -> p >= 1
    | _ -> false
  in
  while not (pass_done ()) do
    Thread.delay 0.02
  done;
  Presolve.stop presolver;
  let pass_s = Unix.gettimeofday () -. t0 in
  let hits_before = response_hits () in
  let grid_lines =
    List.mapi
      (fun i p ->
        match p with
        | Jsonx.Obj fields ->
            Jsonx.to_string (Jsonx.Obj (("id", Jsonx.Int (100000 + i)) :: fields))
        | _ -> assert false)
      (Presolve.points grid)
  in
  let _, _, _ =
    run_clients ~transport:(Http http_port) ~keep_responses:false
      (deal 1 grid_lines)
  in
  let in_grid_hit_rate =
    float_of_int (response_hits () - hits_before) /. float_of_int n_points
  in
  Printf.printf "presolve: pass %.1f s, in-grid warm-hit rate %.2f\n%!"
    pass_s in_grid_hit_rate;

  let server_stats = Service.stats_json service in
  Server.stop server;

  (* ---- gates ---- *)
  let baseline =
    match
      if Sys.file_exists !baseline_file then
        let ic = open_in !baseline_file in
        let n = in_channel_length ic in
        let s = really_input_string ic n in
        close_in ic;
        Jsonx.parse s |> Result.to_option
      else None
    with
    | Some j -> j
    | None ->
        Printf.eprintf "note: no baseline %s; gates skipped\n%!"
          !baseline_file;
        Jsonx.Obj []
  in
  let gate_float key default =
    match Option.bind (Jsonx.member key baseline) Jsonx.get_float with
    | Some v -> v
    | None -> default
  in
  let p99_slo = gate_float "warm_p99_ms_slo" infinity in
  let presolve_floor = gate_float "presolve_hit_floor" 0.9 in
  let cold_floor = gate_float "cold_rps_floor" 0. in

  let doc =
    Jsonx.Obj
      [
        ("schema_version", Jsonx.Int 3);
        ("quick", Jsonx.Bool quick);
        ( "config",
          Jsonx.Obj
            [
              ("workers", Jsonx.Int workers);
              ("conns", Jsonx.Int n_conns);
              ("solve_cache_cap", Jsonx.Int solve_cache_cap);
              ("cold_specs", Jsonx.Int n_cold);
              ("warm_per_conn", Jsonx.Int warm_per_conn);
            ] );
        ( "phases",
          Jsonx.Obj
            [
              ("cold_unix", phase_json cold);
              ("warm_unix", phase_json warm_unix);
              ("warm_http", phase_json warm_http);
            ] );
        ( "warm",
          Jsonx.Obj
            [
              ("requests", Jsonx.Int warm_sent);
              ("response_cache_hits", Jsonx.Int warm_hits);
              ("mismatches", Jsonx.Int warm_mismatches);
            ] );
        ( "presolve",
          Jsonx.Obj
            [
              ("grid_points", Jsonx.Int n_points);
              ("pass_s", Jsonx.num pass_s);
              ("in_grid_hit_rate", Jsonx.num in_grid_hit_rate);
            ] );
        ("server_stats", server_stats);
      ]
  in
  let oc = open_out !out in
  output_string oc (Jsonx.to_string_pretty doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n%!" !out;
  (try Sys.remove sock with Sys_error _ -> ());

  let failures = ref [] in
  let gate name ok detail =
    if not ok then failures := Printf.sprintf "%s (%s)" name detail :: !failures
  in
  gate "warm p99 SLO"
    (warm_unix.p99_ms <= p99_slo)
    (Printf.sprintf "p99 %.2f ms > SLO %.2f ms" warm_unix.p99_ms p99_slo);
  gate "warm response-cache hits"
    (warm_hits = warm_sent)
    (Printf.sprintf "%d hit(s) for %d warm request(s)" warm_hits warm_sent);
  gate "warm = cold"
    (Hashtbl.length cold_solutions = n_cold && warm_mismatches = 0)
    (Printf.sprintf "%d of %d cold spec(s) solved, %d warm answer(s) differ"
       (Hashtbl.length cold_solutions)
       n_cold warm_mismatches);
  gate "presolve warm hits"
    (in_grid_hit_rate >= presolve_floor)
    (Printf.sprintf "%.2f < floor %.2f" in_grid_hit_rate presolve_floor);
  gate "cold throughput"
    (cold.rps >= cold_floor)
    (Printf.sprintf "%.1f rps < floor %.1f" cold.rps cold_floor);
  match !failures with
  | [] -> print_endline "PASS"
  | fs ->
      List.iter (fun f -> Printf.eprintf "FAIL: %s\n" f) fs;
      exit 1
