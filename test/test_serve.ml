(* The serve subsystem: Jsonx codec, wire protocol, batch service,
   Solve_cache capacity + persistence, and the socket transport. *)

open Cacti_util
open Cacti_server

let t45 = Cacti_tech.Technology.at_nm 45.

(* ------------------------------ Jsonx ----------------------------- *)

let test_jsonx_parse_basics () =
  let j = Jsonx.parse_exn {| {"a": [1, 2.5, "x", true, null], "b": -3} |} in
  Alcotest.(check bool)
    "structure" true
    (Jsonx.equal j
       (Jsonx.Obj
          [
            ( "a",
              Jsonx.List
                [
                  Jsonx.Int 1; Jsonx.Float 2.5; Jsonx.String "x";
                  Jsonx.Bool true; Jsonx.Null;
                ] );
            ("b", Jsonx.Int (-3));
          ]))

let test_jsonx_escapes () =
  let j = Jsonx.parse_exn {|"a\nb\t\"\\\u0041\u00e9"|} in
  (* \u00e9 is U+00E9, two UTF-8 bytes *)
  Alcotest.(check string)
    "escapes" "a\nb\t\"\\A\xc3\xa9"
    (Option.get (Jsonx.get_string j));
  let smile = Jsonx.parse_exn {|"\ud83d\ude00"|} in
  Alcotest.(check string)
    "surrogate pair" "\xf0\x9f\x98\x80"
    (Option.get (Jsonx.get_string smile))

let test_jsonx_parse_errors () =
  let bad s =
    match Jsonx.parse s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "parse %S should fail" s
  in
  bad "";
  bad "{";
  bad "[1,]";
  bad "{\"a\":1} trailing";
  bad "\"raw \x01 control\"";
  bad "tru";
  bad "01"

let test_jsonx_numbers () =
  (* Floats always print with '.' or 'e' so Int/Float survives a cycle. *)
  let is_float s =
    match Jsonx.parse_exn s with Jsonx.Float _ -> true | _ -> false
  in
  Alcotest.(check bool)
    "1. stays float" true
    (is_float (Jsonx.to_string (Jsonx.Float 1.)));
  Alcotest.(check string) "nan prints null" "null"
    (Jsonx.to_string (Jsonx.Float Float.nan));
  Alcotest.(check string) "inf prints null" "null"
    (Jsonx.to_string (Jsonx.Float Float.infinity));
  Alcotest.(check bool)
    "num normalizes" true
    (Jsonx.equal (Jsonx.num Float.nan) Jsonx.Null);
  Alcotest.(check bool)
    "max_int roundtrips" true
    (Jsonx.equal
       (Jsonx.parse_exn (Jsonx.to_string (Jsonx.Int max_int)))
       (Jsonx.Int max_int))

let jsonx_arb =
  let open QCheck.Gen in
  let byte_string = string_size ~gen:(map Char.chr (int_range 0 255)) (int_bound 12) in
  let leaf =
    oneof
      [
        return Jsonx.Null;
        map (fun b -> Jsonx.Bool b) bool;
        map (fun i -> Jsonx.Int i) int;
        map (fun f -> Jsonx.Float f)
          (oneof
             [
               float; return Float.nan; return Float.infinity;
               return Float.neg_infinity; return 0.; return (-0.);
               return 1e-308; return 0.1;
             ]);
        map (fun s -> Jsonx.String s) byte_string;
      ]
  in
  let gen =
    sized
    @@ fix (fun self n ->
           if n <= 0 then leaf
           else
             frequency
               [
                 (3, leaf);
                 ( 1,
                   map (fun l -> Jsonx.List l)
                     (list_size (int_bound 4) (self (n / 2))) );
                 ( 1,
                   map
                     (fun l -> Jsonx.Obj l)
                     (list_size (int_bound 4)
                        (pair byte_string (self (n / 2)))) );
               ])
  in
  QCheck.make ~print:Jsonx.to_string gen

let prop_jsonx_roundtrip =
  QCheck.Test.make ~name:"jsonx print-parse roundtrip" ~count:500 jsonx_arb
    (fun v ->
      let want = Jsonx.normalize v in
      match
        (Jsonx.parse (Jsonx.to_string v), Jsonx.parse (Jsonx.to_string_pretty v))
      with
      | Ok compact, Ok pretty ->
          Jsonx.equal compact want && Jsonx.equal pretty want
      | Error e, _ | _, Error e -> QCheck.Test.fail_reportf "parse: %s" e)

(* ----------------------------- protocol --------------------------- *)

let request_arb =
  let open QCheck.Gen in
  (* nm with two decimals: nm_of_tech guarantees this roundtrips to the
     identical Technology.t *)
  let nm = map (fun i -> float_of_int i /. 100.) (int_range 3200 9000) in
  let params =
    let* opt =
      oneofl
        [
          Cacti.Opt_params.default; Cacti.Opt_params.delay_optimal;
          Cacti.Opt_params.area_optimal; Cacti.Opt_params.energy_optimal;
        ]
    and* strict = bool
    and* jobs = oneofl [ None; Some 1; Some 4 ]
    and* deadline_ms = oneofl [ None; Some 25.; Some 1500.5 ] in
    return { Protocol.opt; strict; jobs; deadline_ms }
  in
  let cache_spec =
    let* nm = nm
    and* log2_cap = int_range 15 20
    and* block = oneofl [ 32; 64 ]
    and* assoc = oneofl [ 2; 4; 8 ]
    and* ram = oneofl Cacti_tech.Cell.[ Sram; Lp_dram; Comm_dram ]
    and* mode = oneofl Cacti.Cache_spec.[ Normal; Sequential; Fast ] in
    match
      Cacti.Cache_spec.create_result
        ~tech:(Cacti_tech.Technology.at_nm nm)
        ~capacity_bytes:(1 lsl log2_cap) ~block_bytes:block ~assoc ~ram
        ~access_mode:mode ()
    with
    | Ok s -> return (Protocol.Cache s)
    | Error ds -> failwith (Diag.render ds)
  in
  let ram_spec =
    let* nm = nm
    and* log2_cap = int_range 12 18
    and* word = oneofl [ 32; 64; 128 ]
    and* banks = oneofl [ 1; 2 ] in
    match
      Cacti.Ram_model.validate
        {
          Cacti.Ram_model.capacity_bytes = 1 lsl log2_cap;
          word_bits = word;
          n_banks = banks;
          ram = Cacti_tech.Cell.Sram;
          sleep_tx = false;
          tech = Cacti_tech.Technology.at_nm nm;
        }
    with
    | Ok s -> return (Protocol.Ram s)
    | Error ds -> failwith (Diag.render ds)
  in
  let mainmem_spec =
    let* nm = nm
    and* gbits = oneofl [ 1; 2; 8 ]
    and* iface = oneofl [ Cacti.Mainmem.ddr3; Cacti.Mainmem.ddr4 ] in
    match
      Cacti.Mainmem.create_result
        ~tech:(Cacti_tech.Technology.at_nm nm)
        ~capacity_bits:(gbits * 1024 * 1024 * 1024)
        ~interface:iface ()
    with
    | Ok c -> return (Protocol.Mainmem c)
    | Error ds -> failwith (Diag.render ds)
  in
  let gen =
    let* id = map (fun i -> Jsonx.Int i) int
    and* params = params
    and* spec = oneof [ cache_spec; ram_spec; mainmem_spec ] in
    return (Protocol.Solve { id; spec; params })
  in
  QCheck.make
    ~print:(fun r -> Jsonx.to_string (Protocol.encode_request r))
    gen

let prop_request_roundtrip =
  QCheck.Test.make ~name:"protocol request encode-parse roundtrip" ~count:200
    request_arb (fun r ->
      let j = Protocol.encode_request r in
      (* through the actual wire: print, parse, decode *)
      match Jsonx.parse (Jsonx.to_string j) with
      | Error e -> QCheck.Test.fail_reportf "wire parse: %s" e
      | Ok j' -> (
          match Protocol.parse_request j' with
          | Error ds -> QCheck.Test.fail_reportf "decode: %s" (Diag.render ds)
          | Ok r' -> Jsonx.equal (Protocol.encode_request r') j))

let test_protocol_errors () =
  let errs s =
    match Protocol.parse_request (Jsonx.parse_exn s) with
    | Error ds -> ds
    | Ok _ -> Alcotest.failf "request %s should not decode" s
  in
  let has reason ds =
    Alcotest.(check bool)
      (reason ^ " reported") true
      (List.exists (fun d -> d.Diag.reason = reason) ds)
  in
  has "unknown_kind" (errs {|{"id":1,"kind":"tlb","spec":{}}|});
  has "bad_request" (errs {|[1,2]|});
  has "bad_field" (errs {|{"id":1,"kind":"cache","spec":{"tech_nm":45}}|});
  (* spec validators run: an invalid geometry reports its own reason *)
  let ds =
    errs
      {|{"id":1,"kind":"cache","spec":{"tech_nm":45,"capacity_bytes":65536,"block_bytes":60}}|}
  in
  has "non_pow2_block" ds

let test_response_roundtrip () =
  let check_rt r =
    let j = Jsonx.parse_exn (Jsonx.to_string (Protocol.response_to_json r)) in
    match Protocol.response_of_json j with
    | Error e -> Alcotest.fail e
    | Ok r' ->
        Alcotest.(check bool)
          "re-encodes identically" true
          (Jsonx.equal (Protocol.response_to_json r') (Protocol.response_to_json r))
  in
  check_rt
    {
      Protocol.r_id = Jsonx.String "q1";
      r_ok = true;
      r_solution = Some (Jsonx.Obj [ ("t_access_s", Jsonx.num 1.5e-9) ]);
      r_diagnostics = [];
      r_wall_ms = 3.25;
      r_cache_hits = 2;
      r_retry_after_ms = None;
    };
  check_rt
    {
      Protocol.r_id = Jsonx.Null;
      r_ok = false;
      r_solution = None;
      r_diagnostics =
        [
          Diag.error ~component:"cache_spec" ~reason:"non_pow2_block" "bad";
          Diag.warning ~component:"serve" ~reason:"cache_load" "cold";
        ];
      r_wall_ms = 0.01;
      r_cache_hits = 0;
      r_retry_after_ms = Some 12.5;
    }

(* -------------------------- batch service ------------------------- *)

let cache_req ~id =
  Printf.sprintf
    {|{"id":%d,"kind":"cache","spec":{"tech_nm":45,"capacity_bytes":65536,"assoc":4}}|}
    id

let get path j =
  List.fold_left (fun acc k -> Option.bind acc (Jsonx.member k)) (Some j) path

let get_int path j = Option.bind (get path j) Jsonx.get_int
let get_bool path j = Option.bind (get path j) Jsonx.get_bool

let reasons_of r =
  match get [ "diagnostics" ] r with
  | Some (Jsonx.List ds) ->
      List.filter_map
        (fun d -> Option.bind (Jsonx.member "reason" d) Jsonx.get_string)
        ds
  | _ -> []

(* Thread-safe reply sink for Service.admit: refusals answer inline from
   the admitting thread, everything else from a worker thread. *)
let collector () =
  let m = Mutex.create () in
  let replies = ref [] in
  let reply s = Mutex.protect m (fun () -> replies := s :: !replies) in
  (reply, fun () -> Mutex.protect m (fun () -> List.rev !replies))

let wait_for ?(budget_s = 10.) cond =
  let deadline = Unix.gettimeofday () +. budget_s in
  while (not (cond ())) && Unix.gettimeofday () < deadline do
    Thread.yield ()
  done

(* Every counted line lands in exactly one outcome bucket — or is still
   queued or in flight, not yet answered.  The stats object must exhibit
   the partition at any instant. *)
let check_partition stats =
  let oi path = Option.value ~default:0 (get_int path stats) in
  let sum =
    List.fold_left
      (fun a k -> a + oi [ "outcomes"; k ])
      (oi [ "queue"; "depth" ] + oi [ "queue"; "in_flight" ])
      [
        "ok"; "invalid"; "no_solution"; "internal_error"; "overloaded";
        "deadline_exceeded"; "draining";
      ]
  in
  Alcotest.(check (option int))
    "counter partition: lines = outcomes + pending" (Some sum)
    (get_int [ "requests"; "lines" ] stats)

(* A sweep big enough that a cold solve spans many cancellation poll
   points (2 MiB, 8-way, 32 nm). *)
let big_cache_req ~id ?deadline_ms () =
  let params =
    match deadline_ms with
    | None -> ""
    | Some d -> Printf.sprintf {|,"params":{"deadline_ms":%g}|} d
  in
  Printf.sprintf
    {|{"id":%d,"kind":"cache","spec":{"tech_nm":32,"capacity_bytes":2097152,"assoc":8}%s}|}
    id params

let test_batch_memo () =
  Cacti.Solve_cache.clear ();
  let service = Service.create () in
  let responses =
    List.init 4 (fun i ->
        Jsonx.parse_exn (Service.handle_line service (cache_req ~id:i)))
  in
  List.iteri
    (fun i r ->
      Alcotest.(check (option int)) "id echoed" (Some i) (get_int [ "id" ] r);
      Alcotest.(check (option bool)) "ok" (Some true) (get_bool [ "ok" ] r);
      (* a cache solve is two memoized lookups (data + tag): the first
         request misses both, every later one hits both *)
      Alcotest.(check (option int))
        "memo hits" (Some (if i = 0 then 0 else 2))
        (get_int [ "timing"; "cache_hits" ] r))
    responses;
  (* all four solutions identical... *)
  let sol r = Option.get (get [ "solution" ] r) in
  let first = sol (List.hd responses) in
  List.iter
    (fun r ->
      Alcotest.(check bool) "same solution" true (Jsonx.equal (sol r) first))
    responses;
  (* the stats request confirms the memoization from the server's own
     counters: the first request misses the response cache and cold-solves
     (two bank-memo misses, data + tag); the three repeats are answered
     from the response cache without ever reaching the solve tables *)
  let stats =
    Jsonx.parse_exn
      (Service.handle_line service {|{"id":"s","kind":"stats"}|})
  in
  Alcotest.(check (option int))
    "response-cache hits total" (Some 3)
    (get_int [ "solution"; "response_cache"; "hits" ] stats);
  Alcotest.(check (option int))
    "response-cache misses total" (Some 1)
    (get_int [ "solution"; "response_cache"; "misses" ] stats);
  Alcotest.(check (option int))
    "memo hits total" (Some 0)
    (get_int [ "solution"; "solve_cache"; "hits" ] stats);
  Alcotest.(check (option int))
    "memo misses total" (Some 2)
    (get_int [ "solution"; "solve_cache"; "misses" ] stats);
  Alcotest.(check (option int))
    "requests by kind" (Some 4)
    (get_int [ "solution"; "requests"; "cache" ] stats);
  (* ...and the served solution is bit-identical to a direct
     Cache_model.solve of the same spec *)
  let spec =
    match
      Cacti.Cache_spec.create_result ~tech:t45 ~capacity_bytes:65536 ~assoc:4
        ()
    with
    | Ok s -> s
    | Error ds -> Alcotest.fail (Diag.render ds)
  in
  match
    Cacti.Cache_model.solve_diag ~params:Cacti.Opt_params.default
      ~strict:false spec
  with
  | Error ds -> Alcotest.fail (Diag.render ds)
  | Ok (c, _) ->
      Alcotest.(check bool)
        "bit-identical to Cache_model.solve" true
        (Jsonx.equal first
           (Jsonx.parse_exn (Jsonx.to_string (Protocol.cache_solution c))))

let test_batch_fault_containment () =
  let service = Service.create () in
  let r = Jsonx.parse_exn (Service.handle_line service "{ not json") in
  Alcotest.(check (option bool)) "not ok" (Some false) (get_bool [ "ok" ] r);
  Alcotest.(check bool)
    "null id" true
    (Jsonx.equal (Option.get (get [ "id" ] r)) Jsonx.Null);
  let reasons =
    match get [ "diagnostics" ] r with
    | Some (Jsonx.List ds) ->
        List.filter_map (fun d -> Option.bind (Jsonx.member "reason" d) Jsonx.get_string) ds
    | _ -> []
  in
  Alcotest.(check bool)
    "parse_error diagnostic" true
    (List.mem "parse_error" reasons);
  (* the service survives: the next request still answers *)
  let r2 = Jsonx.parse_exn (Service.handle_line service (cache_req ~id:9)) in
  Alcotest.(check (option bool)) "still serving" (Some true) (get_bool [ "ok" ] r2)

let test_run_batch_channels () =
  let reqs = Filename.temp_file "serve_req" ".jsonl" in
  let resps = Filename.temp_file "serve_resp" ".jsonl" in
  let oc = open_out reqs in
  output_string oc (cache_req ~id:1);
  output_string oc "\n\n";
  (* blank line is skipped *)
  output_string oc {|{"id":2,"kind":"stats"}|};
  output_string oc "\n";
  close_out oc;
  let ic = open_in reqs in
  let oc = open_out resps in
  let n = Server.run_batch (Service.create ()) ic oc in
  close_in ic;
  close_out oc;
  Alcotest.(check int) "two requests answered" 2 n;
  let ic = open_in resps in
  let lines = List.init 2 (fun _ -> input_line ic) in
  close_in ic;
  List.iteri
    (fun i l ->
      Alcotest.(check (option int))
        "response order" (Some (i + 1))
        (get_int [ "id" ] (Jsonx.parse_exn l)))
    lines;
  Sys.remove reqs;
  Sys.remove resps

(* ----------------------- Solve_cache capacity --------------------- *)

let ram_solve word_bits =
  let spec =
    {
      Cacti.Ram_model.capacity_bytes = 16 * 1024;
      word_bits;
      n_banks = 1;
      ram = Cacti_tech.Cell.Sram;
      sleep_tx = false;
      tech = t45;
    }
  in
  match
    Cacti.Ram_model.solve_diag ~params:Cacti.Opt_params.default ~strict:false
      spec
  with
  | Ok _ -> ()
  | Error ds -> Alcotest.fail (Diag.render ds)

let with_cold_cache f =
  Cacti.Solve_cache.clear ();
  Fun.protect ~finally:(fun () ->
      Cacti.Solve_cache.set_capacity None;
      Cacti.Solve_cache.clear ())
    f

let test_cache_capacity_lru () =
  with_cold_cache @@ fun () ->
  Cacti.Solve_cache.set_capacity (Some 2);
  Alcotest.(check (option int)) "capacity" (Some 2) (Cacti.Solve_cache.capacity ());
  let hits () = (Cacti.Solve_cache.stats ()).Cacti.Solve_cache.hits in
  ram_solve 32;
  ram_solve 64;
  Alcotest.(check int) "at cap" 2 (Cacti.Solve_cache.size ());
  ram_solve 32;
  (* touch 32: now 64 is the LRU entry *)
  let h0 = hits () in
  ram_solve 128;
  (* evicts 64 *)
  Alcotest.(check int) "still at cap" 2 (Cacti.Solve_cache.size ());
  ram_solve 32;
  Alcotest.(check int) "32 survived eviction" (h0 + 1) (hits ());
  let h1 = hits () in
  ram_solve 64;
  Alcotest.(check int) "64 was evicted (re-solve misses)" h1 (hits ());
  (* shrinking below the current size evicts immediately *)
  Cacti.Solve_cache.set_capacity (Some 1);
  Alcotest.(check int) "shrunk" 1 (Cacti.Solve_cache.size ());
  Alcotest.check_raises "negative cap"
    (Invalid_argument "Solve_cache.set_capacity: negative cap")
    (fun () -> Cacti.Solve_cache.set_capacity (Some (-1)))

(* --------------------------- persistence -------------------------- *)

let has_diag ~severity ~reason ds =
  List.exists
    (fun d -> d.Diag.severity = severity && d.Diag.reason = reason)
    ds

let test_persist_warm_restart () =
  let path = Filename.temp_file "solve_cache" ".bin" in
  with_cold_cache @@ fun () ->
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
  @@ fun () ->
  ram_solve 32;
  ram_solve 64;
  (match Cacti.Solve_cache.save path with
  | Ok n -> Alcotest.(check int) "saved both" 2 n
  | Error e -> Alcotest.fail e);
  (* "restart": empty table, load the file back *)
  Cacti.Solve_cache.clear ();
  let ds = Persist.load path in
  Alcotest.(check bool)
    "warm-start info" true
    (has_diag ~severity:Diag.Info ~reason:"cache_load" ds);
  Alcotest.(check int) "entries restored" 2 (Cacti.Solve_cache.size ());
  let h0 = (Cacti.Solve_cache.stats ()).Cacti.Solve_cache.hits in
  ram_solve 32;
  Alcotest.(check int)
    "first request after restart is a memo hit"
    (h0 + 1)
    (Cacti.Solve_cache.stats ()).Cacti.Solve_cache.hits;
  (* a capped memo (as cacti_serve sets before loading) keeps only what
     fits *)
  Cacti.Solve_cache.clear ();
  Cacti.Solve_cache.set_capacity (Some 1);
  ignore (Persist.load path);
  Alcotest.(check int) "load under a cap of 1" 1 (Cacti.Solve_cache.size ())

let test_persist_corrupt_cold_start () =
  let path = Filename.temp_file "solve_cache" ".bin" in
  with_cold_cache @@ fun () ->
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
  @@ fun () ->
  ram_solve 32;
  (match Cacti.Solve_cache.save path with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let full = In_channel.with_open_bin path In_channel.input_all in
  let header_end = String.index full '\n' + 1 in
  let try_load contents =
    Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc contents);
    Cacti.Solve_cache.clear ();
    Persist.load path
  in
  (* valid header, truncated payload *)
  let ds = try_load (String.sub full 0 (header_end + 4)) in
  Alcotest.(check bool)
    "truncated -> warning[serve/cache_load]" true
    (has_diag ~severity:Diag.Warning ~reason:"cache_load" ds);
  Alcotest.(check int) "cold start" 0 (Cacti.Solve_cache.size ());
  (* garbage header *)
  let ds = try_load "not a solve cache\n" in
  Alcotest.(check bool)
    "bad magic -> warning" true
    (has_diag ~severity:Diag.Warning ~reason:"cache_load" ds);
  (* flipped payload bytes *)
  let mangled = Bytes.of_string full in
  Bytes.set mangled (Bytes.length mangled - 1) '\xff';
  Bytes.set mangled header_end
    (Char.chr (Char.code (Bytes.get mangled header_end) lxor 0xff));
  let ds = try_load (Bytes.to_string mangled) in
  Alcotest.(check bool)
    "corrupt payload -> warning" true
    (has_diag ~severity:Diag.Warning ~reason:"cache_load" ds);
  (* a missing file is a first boot, not a fault *)
  Sys.remove path;
  let ds = Persist.load path in
  Alcotest.(check bool)
    "missing -> info, not warning" true
    (has_diag ~severity:Diag.Info ~reason:"cache_load" ds
    && not (has_diag ~severity:Diag.Warning ~reason:"cache_load" ds));
  (* the cold service still answers *)
  ram_solve 32

(* ------------------------- admission queue ------------------------ *)

let test_queue_backpressure () =
  let service = Service.create ~queue_bound:1 ~log:ignore () in
  let reply, replies = collector () in
  (* no worker is running, so the first admit parks in the queue *)
  Service.admit service ~reply (cache_req ~id:6);
  Alcotest.(check int) "first request queued" 1 (Service.queue_depth service);
  Alcotest.(check int) "no reply yet" 0 (List.length (replies ()));
  (* the second overflows the bound and is refused inline *)
  Service.admit service ~reply (cache_req ~id:7);
  Alcotest.(check int) "still one queued" 1 (Service.queue_depth service);
  let r = Jsonx.parse_exn (List.nth (replies ()) 0) in
  Alcotest.(check (option bool))
    "overload not ok" (Some false) (get_bool [ "ok" ] r);
  Alcotest.(check (option int)) "overload echoes id" (Some 7) (get_int [ "id" ] r);
  Alcotest.(check bool)
    "queue_full reason" true
    (List.mem "queue_full" (reasons_of r));
  Alcotest.(check bool)
    "retry hint present" true
    (match Option.bind (get [ "retry_after_ms" ] r) Jsonx.get_float with
    | Some v -> v >= 1.
    | None -> false);
  Service.stop_workers service;
  Service.admit service ~reply (cache_req ~id:8);
  let r = Jsonx.parse_exn (List.nth (replies ()) 1) in
  Alcotest.(check bool)
    "refused as draining after stop" true
    (List.mem "draining" (reasons_of r));
  check_partition (Service.stats_json service)

let test_queue_worker_drain () =
  with_cold_cache @@ fun () ->
  let service = Service.create ~queue_bound:8 ~log:ignore () in
  let reply, replies = collector () in
  let worker = Thread.create (fun () -> Service.run_worker service) () in
  for i = 1 to 5 do
    Service.admit service ~reply (cache_req ~id:i)
  done;
  wait_for (fun () -> List.length (replies ()) >= 5);
  Service.stop_workers service;
  Thread.join worker;
  let got = List.map Jsonx.parse_exn (replies ()) in
  Alcotest.(check int) "all five answered" 5 (List.length got);
  Alcotest.(check (list int))
    "ids echoed once each" [ 1; 2; 3; 4; 5 ]
    (List.sort compare (List.filter_map (get_int [ "id" ]) got));
  List.iter
    (fun r ->
      Alcotest.(check (option bool)) "ok" (Some true) (get_bool [ "ok" ] r))
    got;
  Alcotest.(check int) "queue drained" 0 (Service.queue_depth service);
  Alcotest.(check bool) "idle" true (Service.idle service);
  check_partition (Service.stats_json service)

(* ---------------------------- deadlines --------------------------- *)

let test_deadline_queued_shed () =
  let service = Service.create ~queue_bound:8 ~log:ignore () in
  let reply, replies = collector () in
  (* admit with a 5 ms budget, but start the worker only after it
     expired: the job must be shed without solving *)
  Service.admit service ~reply (big_cache_req ~id:41 ~deadline_ms:5. ());
  Thread.delay 0.02;
  let worker = Thread.create (fun () -> Service.run_worker service) () in
  wait_for (fun () -> List.length (replies ()) >= 1);
  Service.stop_workers service;
  Thread.join worker;
  let r = Jsonx.parse_exn (List.hd (replies ())) in
  Alcotest.(check (option bool)) "shed not ok" (Some false) (get_bool [ "ok" ] r);
  Alcotest.(check (option int)) "shed echoes id" (Some 41) (get_int [ "id" ] r);
  Alcotest.(check bool)
    "deadline_exceeded reason" true
    (List.mem "deadline_exceeded" (reasons_of r));
  Alcotest.(check bool)
    "retry hint present" true
    (Option.is_some (get [ "retry_after_ms" ] r));
  let stats = Service.stats_json service in
  Alcotest.(check (option int))
    "counted as deadline_exceeded" (Some 1)
    (get_int [ "outcomes"; "deadline_exceeded" ] stats);
  check_partition stats

let test_deadline_cancels_mid_solve () =
  with_cold_cache @@ fun () ->
  (* response cache off: this test must re-run the cold sweep so the
     cancellation fires mid-solve, not answer from the memoized wire
     response *)
  let service = Service.create ~resp_cache:0 ~log:ignore () in
  (* baseline: the same cold sweep run to completion *)
  let t0 = Unix.gettimeofday () in
  let r_full =
    Jsonx.parse_exn (Service.handle_line service (big_cache_req ~id:1 ()))
  in
  let full_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
  Alcotest.(check (option bool))
    "baseline ok" (Some true) (get_bool [ "ok" ] r_full);
  (* identical spec, cold again, under a 1 ms budget: the solver must
     abort at a poll point, not run the sweep to completion *)
  Cacti.Solve_cache.clear ();
  let t0 = Unix.gettimeofday () in
  let r =
    Jsonx.parse_exn
      (Service.handle_line service (big_cache_req ~id:2 ~deadline_ms:1. ()))
  in
  let cancelled_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
  Alcotest.(check (option bool))
    "cancelled not ok" (Some false) (get_bool [ "ok" ] r);
  Alcotest.(check bool)
    "deadline_exceeded reason" true
    (List.mem "deadline_exceeded" (reasons_of r));
  Alcotest.(check bool)
    (Printf.sprintf "cancelled solve returned early (%.1f ms vs %.1f ms full)"
       cancelled_ms full_ms)
    true
    (cancelled_ms < Float.max (full_ms /. 2.) 25.);
  let stats = Service.stats_json service in
  Alcotest.(check (option int))
    "counted as deadline_exceeded" (Some 1)
    (get_int [ "outcomes"; "deadline_exceeded" ] stats);
  check_partition stats

let test_deadline_noop_bit_identity () =
  with_cold_cache @@ fun () ->
  (* response cache off so the deadlined request genuinely re-solves *)
  let service = Service.create ~resp_cache:0 ~log:ignore () in
  let sol r = Option.get (get [ "solution" ] r) in
  let r_plain = Jsonx.parse_exn (Service.handle_line service (cache_req ~id:1)) in
  (* cold again so the deadlined request re-runs the whole sweep *)
  Cacti.Solve_cache.clear ();
  let r_dl =
    Jsonx.parse_exn
      (Service.handle_line service
         {|{"id":2,"kind":"cache","spec":{"tech_nm":45,"capacity_bytes":65536,"assoc":4},"params":{"deadline_ms":600000}}|})
  in
  Alcotest.(check (option bool))
    "ok under a generous deadline" (Some true) (get_bool [ "ok" ] r_dl);
  Alcotest.(check bool)
    "solution bit-identical with and without a deadline" true
    (Jsonx.equal (sol r_plain) (sol r_dl))

(* -------------------------- fault injection ----------------------- *)

let test_worker_fault_contained () =
  Chaos.reset ();
  let lm = Mutex.create () in
  let logged = ref [] in
  let service =
    Service.create ~queue_bound:8
      ~log:(fun d -> Mutex.protect lm (fun () -> logged := d :: !logged))
      ()
  in
  let reply, replies = collector () in
  Chaos.arm "service.worker" Chaos.Exn;
  Fun.protect ~finally:Chaos.reset @@ fun () ->
  let worker = Thread.create (fun () -> Service.run_worker service) () in
  Service.admit service ~reply (cache_req ~id:77);
  wait_for (fun () -> List.length (replies ()) >= 1);
  Service.stop_workers service;
  Thread.join worker;
  let r = Jsonx.parse_exn (List.hd (replies ())) in
  Alcotest.(check (option bool))
    "best-effort answer, not ok" (Some false) (get_bool [ "ok" ] r);
  Alcotest.(check (option int)) "id echoed" (Some 77) (get_int [ "id" ] r);
  Alcotest.(check bool)
    "internal_error reason" true
    (List.mem "internal_error" (reasons_of r));
  let stats = Service.stats_json service in
  Alcotest.(check (option int))
    "counted as internal_error" (Some 1)
    (get_int [ "outcomes"; "internal_error" ] stats);
  Alcotest.(check (option int))
    "worker fault counter" (Some 1)
    (get_int [ "faults"; "worker" ] stats);
  check_partition stats;
  Alcotest.(check bool)
    "warning[serve/worker_fault] logged" true
    (List.exists
       (fun d ->
         d.Diag.severity = Diag.Warning && d.Diag.reason = "worker_fault")
       !logged)

(* ------------------------------ drain ----------------------------- *)

let test_drain_refusal () =
  let service = Service.create ~log:ignore () in
  let reply, replies = collector () in
  Alcotest.(check bool) "not draining yet" false (Service.draining service);
  Service.begin_drain service;
  Alcotest.(check bool) "draining" true (Service.draining service);
  Service.admit service ~reply (cache_req ~id:5);
  let r = Jsonx.parse_exn (List.hd (replies ())) in
  Alcotest.(check (option bool)) "refused" (Some false) (get_bool [ "ok" ] r);
  Alcotest.(check (option int)) "id echoed" (Some 5) (get_int [ "id" ] r);
  Alcotest.(check bool)
    "draining reason" true
    (List.mem "draining" (reasons_of r));
  check_partition (Service.stats_json service)

(* -------------------------- socket server ------------------------- *)

let sock_path tag =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "cacti_serve_%s_%d.sock" tag (Unix.getpid ()))

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd

let test_socket_concurrent_clients () =
  let service = Service.create () in
  (* warm the memo so client solves are instant *)
  ignore (Service.handle_line service (cache_req ~id:0));
  let path = sock_path "test" in
  let server = Server.start ~workers:2 service ~path () in
  let n_clients = 3 and per_client = 8 in
  let results = Array.make n_clients [] in
  let client k =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX path);
    let ic = Unix.in_channel_of_descr fd in
    let oc = Unix.out_channel_of_descr fd in
    for i = 0 to per_client - 1 do
      output_string oc (cache_req ~id:((k * 100) + i));
      output_char oc '\n'
    done;
    flush oc;
    let got = ref [] in
    for _ = 1 to per_client do
      got := Jsonx.parse_exn (input_line ic) :: !got
    done;
    results.(k) <- !got;
    Unix.close fd
  in
  let threads =
    List.init n_clients (fun k -> Thread.create (fun () -> client k) ())
  in
  List.iter Thread.join threads;
  Server.stop server;
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists path);
  Array.iteri
    (fun k got ->
      (* every client gets exactly its own ids back, each exactly once,
         every line a well-formed ok response — no interleaving *)
      let ids = List.filter_map (get_int [ "id" ]) got in
      Alcotest.(check (list int))
        (Printf.sprintf "client %d ids" k)
        (List.init per_client (fun i -> (k * 100) + i))
        (List.sort compare ids);
      List.iter
        (fun r ->
          Alcotest.(check (option bool))
            "response ok" (Some true) (get_bool [ "ok" ] r))
        got)
    results

let test_socket_drain_cancels_inflight () =
  with_cold_cache @@ fun () ->
  Chaos.reset ();
  let service = Service.create ~log:ignore () in
  let path = sock_path "drain" in
  let server = Server.start ~workers:1 service ~path () in
  (* hold the solve at the injection point long enough that the stop's
     drain token deterministically fires mid-request *)
  Chaos.arm "service.slow_solve" (Chaos.Delay 0.05);
  Fun.protect ~finally:Chaos.reset @@ fun () ->
  let fd = connect path in
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  output_string oc (big_cache_req ~id:1 ());
  output_char oc '\n';
  flush oc;
  wait_for ~budget_s:5. (fun () -> Service.in_flight service = 1);
  Alcotest.(check int) "solve in flight" 1 (Service.in_flight service);
  (* a zero drain budget fires the drain token: the in-flight sweep must
     abort and answer serve/draining rather than run to completion *)
  Server.stop ~drain_ms:0. server;
  let r = Jsonx.parse_exn (input_line ic) in
  Alcotest.(check (option bool))
    "in-flight work answered" (Some false) (get_bool [ "ok" ] r);
  Alcotest.(check bool)
    "draining reason" true
    (List.mem "draining" (reasons_of r));
  (* stop is idempotent *)
  Server.stop server;
  Unix.close fd;
  Alcotest.(check bool) "socket removed" false (Sys.file_exists path);
  check_partition (Service.stats_json service)

let test_socket_stop_concurrent () =
  let path = sock_path "race" in
  let server = Server.start (Service.create ~log:ignore ()) ~path () in
  let stoppers =
    List.init 2 (fun _ ->
        Thread.create (fun () -> Server.stop ~drain_ms:50. server) ())
  in
  List.iter Thread.join stoppers;
  Alcotest.(check bool) "socket removed" false (Sys.file_exists path);
  (* the path is immediately reusable by a fresh server *)
  let server2 = Server.start (Service.create ~log:ignore ()) ~path () in
  Server.stop server2;
  Alcotest.(check bool) "socket removed again" false (Sys.file_exists path)

let test_socket_liveness_probe () =
  let path = sock_path "probe" in
  (* a stale socket file: bound once, its listener long gone *)
  let stale = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind stale (Unix.ADDR_UNIX path);
  Unix.close stale;
  Alcotest.(check bool) "stale file left behind" true (Sys.file_exists path);
  let service = Service.create ~log:ignore () in
  ignore (Service.handle_line service (cache_req ~id:0));
  let server = Server.start service ~path () in
  (* a second server must refuse to hijack the live socket *)
  (match Server.start (Service.create ~log:ignore ()) ~path () with
  | exception Unix.Unix_error (Unix.EADDRINUSE, _, _) -> ()
  | _ -> Alcotest.fail "second bind on a live socket must raise EADDRINUSE");
  (* the probe did not disturb the running server *)
  let fd = connect path in
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  output_string oc (cache_req ~id:3);
  output_char oc '\n';
  flush oc;
  let r = Jsonx.parse_exn (input_line ic) in
  Alcotest.(check (option bool))
    "first server still answers" (Some true) (get_bool [ "ok" ] r);
  Unix.close fd;
  Server.stop server;
  Alcotest.(check bool) "socket removed" false (Sys.file_exists path)

(* Line discipline under arbitrary bytes: every newline-terminated
   non-blank line gets exactly one well-formed response line — garbage
   parses to a typed refusal, never to silence or a crash. *)
let lines_arb =
  let open QCheck.Gen in
  let line_char =
    map (fun i -> if i = Char.code '\n' then ' ' else Char.chr i)
      (int_range 1 255)
  in
  let garbage = string_size ~gen:line_char (int_bound 40) in
  let valid = map (fun id -> cache_req ~id) (int_bound 1000) in
  let stats = return {|{"id":0,"kind":"stats"}|} in
  QCheck.make
    ~print:(fun ls -> String.concat " | " ls)
    (list_size (int_range 1 6) (oneof [ garbage; garbage; valid; stats ]))

let test_socket_fuzz_line_discipline () =
  with_cold_cache @@ fun () ->
  Chaos.reset ();
  let service = Service.create ~queue_bound:64 ~log:ignore () in
  ignore (Service.handle_line service (cache_req ~id:0));
  let path = sock_path "fuzz" in
  let server = Server.start ~workers:2 service ~path () in
  Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
  let prop lines =
    let fd = connect path in
    (* a stalled server must fail the property, not hang the suite *)
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
    let ic = Unix.in_channel_of_descr fd in
    let oc = Unix.out_channel_of_descr fd in
    List.iter
      (fun l ->
        output_string oc l;
        output_char oc '\n')
      lines;
    flush oc;
    let expected =
      List.length (List.filter (fun l -> String.trim l <> "") lines)
    in
    let got = ref 0 and well_formed = ref true in
    (try
       for _ = 1 to expected do
         (match Jsonx.parse (input_line ic) with
         | Ok _ -> ()
         | Error _ -> well_formed := false);
         incr got
       done
     with End_of_file | Sys_blocked_io | Sys_error _ | Unix.Unix_error _ -> ());
    (* and not one line more *)
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO 0.2;
    let extra =
      match input_line ic with
      | _ -> true
      | exception (End_of_file | Sys_blocked_io | Sys_error _
                  | Unix.Unix_error _) ->
          false
    in
    Unix.close fd;
    if not (!got = expected && !well_formed && not extra) then
      QCheck.Test.fail_reportf
        "wanted %d response(s), got %d (well-formed: %b, extra line: %b)"
        expected !got !well_formed extra
    else true
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~name:"one response per non-blank line" ~count:20
       lines_arb prop)

(* -------------------------- response cache ------------------------ *)

let spec_line ~id i =
  let nodes = [| 90.; 65.; 45.; 32. |] in
  if i mod 3 = 2 then
    Printf.sprintf
      {|{"id":%d,"kind":"ram","spec":{"tech_nm":%g,"capacity_bytes":%d,"word_bits":64}}|}
      id nodes.(i mod 4)
      (16384 lsl (i mod 3))
  else
    Printf.sprintf
      {|{"id":%d,"kind":"cache","spec":{"tech_nm":%g,"capacity_bytes":%d,"assoc":%d}}|}
      id nodes.(i mod 4)
      (32768 lsl (i mod 3))
      (if i mod 2 = 0 then 4 else 8)

let test_response_cache_uncached_solve () =
  with_cold_cache @@ fun () ->
  (* reference: no response cache, every request decoded and solved;
     subject: the default service, whose repeats take the warm fast path *)
  let reference = Service.create ~resp_cache:0 ~log:ignore () in
  let subject = Service.create ~log:ignore () in
  let specs = [ 0; 1; 2; 3; 4; 5 ] in
  let ask service i =
    Jsonx.parse_exn (Service.handle_line service (spec_line ~id:i i))
  in
  let sol r = Option.get (get [ "solution" ] r) in
  let want_cold = List.map (fun i -> sol (ask reference i)) specs in
  let want_warm = List.map (fun i -> ask reference i) specs in
  (* the subject's cold pass solves from empty tables too *)
  Cacti.Solve_cache.clear ();
  List.iteri
    (fun k i ->
      let cold = sol (ask subject i) in
      (* second time through: answered by the response cache *)
      let warm = ask subject i in
      let ref_warm = List.nth want_warm k in
      Alcotest.(check bool)
        (Printf.sprintf "spec %d: cold solution identical" i)
        true
        (Jsonx.equal (List.nth want_cold k) cold);
      Alcotest.(check bool)
        (Printf.sprintf "spec %d: warm solution identical" i)
        true
        (Jsonx.equal (sol ref_warm) (sol warm));
      Alcotest.(check (option int))
        (Printf.sprintf "spec %d: warm cache_hits as a memo hit" i)
        (get_int [ "timing"; "cache_hits" ] ref_warm)
        (get_int [ "timing"; "cache_hits" ] warm))
    specs;
  let stats = Service.stats_json subject in
  Alcotest.(check (option int))
    "one response-cache hit per warm request" (Some (List.length specs))
    (get_int [ "response_cache"; "hits" ] stats);
  Alcotest.(check (option int))
    "reference has no response cache" (Some 0)
    (get_int [ "response_cache"; "size" ] (Service.stats_json reference));
  check_partition stats;
  check_partition (Service.stats_json reference)

let test_response_key_ignores_per_call_knobs () =
  let key s = Service.response_key (Jsonx.parse_exn s) in
  let base =
    {|{"id":1,"kind":"cache","spec":{"tech_nm":45,"capacity_bytes":65536,"assoc":4}}|}
  in
  let tweaked =
    {|{"id":99,"kind":"cache","spec":{"assoc":4,"capacity_bytes":65536,"tech_nm":45},"params":{"deadline_ms":5,"jobs":2}}|}
  in
  Alcotest.(check string)
    "id, key order, deadline and jobs do not affect the key" (key base)
    (key tweaked);
  let other =
    {|{"id":1,"kind":"cache","spec":{"tech_nm":45,"capacity_bytes":131072,"assoc":4}}|}
  in
  Alcotest.(check bool)
    "a different spec keys differently" true
    (key base <> key other)

(* --------------------------- retry_after -------------------------- *)

let test_retry_after_rate_based () =
  with_cold_cache @@ fun () ->
  let service = Service.create ~queue_bound:1 ~log:ignore () in
  Alcotest.(check bool)
    "no rate before completions" true
    (Service.service_rate service = None);
  (* establish a service rate: one cold solve, then warm repeats *)
  for i = 0 to 4 do
    ignore (Service.handle_line service (cache_req ~id:i))
  done;
  let rate =
    match Service.service_rate service with
    | Some r -> r
    | None -> Alcotest.fail "service rate unknown after five completions"
  in
  Alcotest.(check bool) "positive rate" true (rate > 0.);
  (* overflow the queue with specs the response cache has never seen
     (warm repeats would be answered inline and never queue): the
     refusal's hint must come from the observed rate (clearing depth+1
     jobs), not the flat fallback *)
  let reply, replies = collector () in
  Service.admit service ~reply (big_cache_req ~id:10 ());
  Service.admit service ~reply
    {|{"id":11,"kind":"cache","spec":{"tech_nm":90,"capacity_bytes":524288,"assoc":8}}|};
  let r = Jsonx.parse_exn (List.hd (replies ())) in
  Alcotest.(check bool)
    "queue_full refusal" true
    (List.mem "queue_full" (reasons_of r));
  let hint =
    match Option.bind (get [ "retry_after_ms" ] r) Jsonx.get_float with
    | Some v -> v
    | None -> Alcotest.fail "refusal carries no retry_after_ms"
  in
  (* two jobs must clear (one queued + this one); the rate was measured
     over warm sub-ms traffic, so the hint is small but never below the
     1 ms floor.  10x headroom absorbs clock skew between the admit and
     the test's own rate sample. *)
  Alcotest.(check bool)
    (Printf.sprintf "hint %.1f ms tracks rate %.1f/s" hint rate)
    true
    (hint >= 1. && hint <= Float.max 10. (10. *. (2. /. rate *. 1e3)))

(* ------------------------------ http ------------------------------ *)

let test_http_parse_request_line () =
  (match Http.parse_request_line "POST /solve HTTP/1.1" with
  | Ok (m, t, v) ->
      Alcotest.(check string) "method" "POST" m;
      Alcotest.(check string) "target" "/solve" t;
      Alcotest.(check string) "version" "HTTP/1.1" v
  | Error e -> Alcotest.failf "should parse: %s" e);
  let bad s =
    match Http.parse_request_line s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%S should not parse" s
  in
  bad "";
  bad "GET /x";
  bad "GET /x HTTP/1.1 extra";
  bad "GET /x FTP/1.0"

let test_http_parse_header () =
  (match Http.parse_header "Content-Type: application/json" with
  | Ok (n, v) ->
      Alcotest.(check string) "name lowercased" "content-type" n;
      Alcotest.(check string) "value trimmed" "application/json" v
  | Error e -> Alcotest.failf "should parse: %s" e);
  (match Http.parse_header "X-Empty:" with
  | Ok (n, v) ->
      Alcotest.(check string) "empty value name" "x-empty" n;
      Alcotest.(check string) "empty value" "" v
  | Error e -> Alcotest.failf "empty value should parse: %s" e);
  (match Http.parse_header "no colon here" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "colonless header should not parse");
  Alcotest.(check (option string))
    "case-insensitive lookup" (Some "42")
    (Http.header_value [ ("content-length", "42") ] "Content-Length")

let test_http_keep_alive () =
  let req ?(version = "HTTP/1.1") headers =
    { Http.meth = "GET"; target = "/"; version; headers; body = "" }
  in
  Alcotest.(check bool) "1.1 default keep" true (Http.keep_alive (req []));
  Alcotest.(check bool)
    "1.1 close honoured" false
    (Http.keep_alive (req [ ("connection", "close") ]));
  Alcotest.(check bool)
    "1.0 default close" false
    (Http.keep_alive (req ~version:"HTTP/1.0" []));
  Alcotest.(check bool)
    "1.0 keep-alive honoured" true
    (Http.keep_alive (req ~version:"HTTP/1.0" [ ("connection", "keep-alive") ]))

let test_http_status_of_body () =
  let ok_line = {|{"id":1,"ok":true,"solution":{},"timing":{"wall_ms":0.1,"cache_hits":2}}|} in
  Alcotest.(check int) "ok -> 200" 200 (fst (Http.status_of_body ok_line));
  (* per-request errors stay in-band *)
  let invalid =
    {|{"id":1,"ok":false,"diagnostics":[{"severity":"error","component":"cache_spec","reason":"non_pow2_block","message":"x"}],"timing":{"wall_ms":0.1,"cache_hits":0}}|}
  in
  Alcotest.(check int) "invalid spec -> 200" 200 (fst (Http.status_of_body invalid));
  let queue_full =
    {|{"id":7,"ok":false,"diagnostics":[{"severity":"error","component":"serve","reason":"queue_full","message":"x"}],"retry_after_ms":1800.5,"timing":{"wall_ms":0.1,"cache_hits":0}}|}
  in
  let status, extra = Http.status_of_body queue_full in
  Alcotest.(check int) "queue_full -> 429" 429 status;
  Alcotest.(check (option string))
    "Retry-After rounds up to seconds" (Some "2")
    (List.assoc_opt "Retry-After" extra);
  let draining =
    {|{"id":7,"ok":false,"diagnostics":[{"severity":"error","component":"serve","reason":"draining","message":"x"}],"timing":{"wall_ms":0.1,"cache_hits":0}}|}
  in
  Alcotest.(check int) "draining -> 503" 503 (fst (Http.status_of_body draining))

(* A minimal raw-socket HTTP client: one exchange, returns (status,
   headers, body).  Deliberately independent of Http's own parser. *)
let http_exchange ic oc ~meth ~target ?(body = "") () =
  Printf.fprintf oc "%s %s HTTP/1.1\r\nHost: test\r\n" meth target;
  if body <> "" || meth = "POST" then
    Printf.fprintf oc "Content-Length: %d\r\n" (String.length body);
  output_string oc "\r\n";
  output_string oc body;
  flush oc;
  let status_line = input_line ic in
  let status =
    match String.split_on_char ' ' (String.trim status_line) with
    | _ :: code :: _ -> int_of_string code
    | _ -> Alcotest.failf "bad status line %S" status_line
  in
  let headers = ref [] in
  let rec drain () =
    let l = String.trim (input_line ic) in
    if l <> "" then begin
      (match String.index_opt l ':' with
      | Some i ->
          headers :=
            ( String.lowercase_ascii (String.sub l 0 i),
              String.trim (String.sub l (i + 1) (String.length l - i - 1)) )
            :: !headers
      | None -> ());
      drain ()
    end
  in
  drain ();
  let len =
    match List.assoc_opt "content-length" !headers with
    | Some v -> int_of_string v
    | None -> Alcotest.fail "response has no Content-Length"
  in
  let body = really_input_string ic len in
  (status, !headers, body)

let test_http_end_to_end () =
  with_cold_cache @@ fun () ->
  let service = Service.create ~log:ignore () in
  let server = Server.start ~workers:1 service ~http:("127.0.0.1", 0) () in
  let port = Option.get (Server.http_port server) in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  (* two solves over one connection: the keep-alive path *)
  let st, _, b = http_exchange ic oc ~meth:"POST" ~target:"/solve"
      ~body:(cache_req ~id:1) () in
  Alcotest.(check int) "solve 200" 200 st;
  let r = Jsonx.parse_exn b in
  Alcotest.(check (option bool)) "solve ok" (Some true) (get_bool [ "ok" ] r);
  Alcotest.(check (option int)) "id echoed" (Some 1) (get_int [ "id" ] r);
  let st, _, b = http_exchange ic oc ~meth:"POST" ~target:"/solve"
      ~body:(cache_req ~id:2) () in
  Alcotest.(check int) "second solve on same connection" 200 st;
  Alcotest.(check (option int))
    "warm repeat hits the response cache" (Some 2)
    (get_int [ "timing"; "cache_hits" ] (Jsonx.parse_exn b));
  (* an in-band error is HTTP 200 *)
  let st, _, b = http_exchange ic oc ~meth:"POST" ~target:"/solve"
      ~body:{|{"id":3,"kind":"tlb","spec":{}}|} () in
  Alcotest.(check int) "invalid request stays 200" 200 st;
  Alcotest.(check (option bool))
    "but not ok" (Some false)
    (get_bool [ "ok" ] (Jsonx.parse_exn b));
  (* stats and health *)
  let st, _, b = http_exchange ic oc ~meth:"GET" ~target:"/stats" () in
  Alcotest.(check int) "stats 200" 200 st;
  Alcotest.(check (option int))
    "both solves counted" (Some 2)
    (get_int [ "solution"; "requests"; "cache" ] (Jsonx.parse_exn b));
  let st, _, b = http_exchange ic oc ~meth:"GET" ~target:"/healthz" () in
  Alcotest.(check int) "healthz 200" 200 st;
  Alcotest.(check bool)
    "healthz says ok" true
    (Jsonx.equal (Jsonx.parse_exn b)
       (Jsonx.Obj [ ("status", Jsonx.String "ok") ]));
  (* unknown target and unknown method on a known one *)
  let st, _, _ = http_exchange ic oc ~meth:"GET" ~target:"/nope" () in
  Alcotest.(check int) "404" 404 st;
  let st, hs, _ = http_exchange ic oc ~meth:"PUT" ~target:"/solve" () in
  Alcotest.(check int) "405" 405 st;
  Alcotest.(check (option string))
    "405 advertises Allow" (Some "POST") (List.assoc_opt "allow" hs);
  (* a drain flips health to 503 and refuses solves with 503 *)
  Service.begin_drain service;
  let st, _, b = http_exchange ic oc ~meth:"GET" ~target:"/healthz" () in
  Alcotest.(check int) "healthz 503 while draining" 503 st;
  Alcotest.(check bool)
    "healthz says draining" true
    (Jsonx.equal (Jsonx.parse_exn b)
       (Jsonx.Obj [ ("status", Jsonx.String "draining") ]));
  let st, _, b = http_exchange ic oc ~meth:"POST" ~target:"/solve"
      ~body:(cache_req ~id:4) () in
  Alcotest.(check int) "draining solve 503" 503 st;
  Alcotest.(check bool)
    "draining reason in band" true
    (List.mem "draining" (reasons_of (Jsonx.parse_exn b)));
  Unix.close fd;
  Server.stop server;
  check_partition (Service.stats_json service)

(* A response line with the digits of its [timing.wall_ms] value
   replaced by "_": the one field that is genuinely per-request. *)
let without_wall_ms line =
  let tag = {|"wall_ms":|} in
  let n = String.length line and m = String.length tag in
  let rec find i =
    if i + m > n then Alcotest.failf "no wall_ms in %s" line
    else if String.sub line i m = tag then i + m
    else find (i + 1)
  in
  let start = find 0 in
  let stop = ref start in
  while !stop < n && line.[!stop] <> ',' && line.[!stop] <> '}' do
    incr stop
  done;
  String.sub line 0 start ^ "_" ^ String.sub line !stop (n - !stop)

let test_warm_path_all_transports () =
  (* One warm path for every transport: after one cold solve, a repeat
     through handle_line (the batch transport), admit (the socket
     transport) and POST /solve is answered from the response cache by
     splicing the stored rendering.  Each must print exactly what the
     tree path prints for a bank-memo hit (a service without a response
     cache, solving against the now-warm memo), wall_ms aside. *)
  with_cold_cache @@ fun () ->
  let service = Service.create ~log:ignore () in
  let req = cache_req ~id:7 in
  let cold = Service.handle_line service req in
  let tree = Service.handle_line (Service.create ~resp_cache:0 ()) req in
  let batch = Service.handle_line service req in
  let reply, replies = collector () in
  Service.admit service ~reply req;
  let socket =
    match replies () with
    | [ r ] -> r
    | rs -> Alcotest.failf "admit answered %d lines inline" (List.length rs)
  in
  let server = Server.start ~workers:1 service ~http:("127.0.0.1", 0) () in
  let http =
    Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
    let port = Option.get (Server.http_port server) in
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
    let st, _, body =
      http_exchange (Unix.in_channel_of_descr fd)
        (Unix.out_channel_of_descr fd) ~meth:"POST" ~target:"/solve"
        ~body:req ()
    in
    Alcotest.(check int) "POST /solve 200" 200 st;
    body
  in
  List.iter
    (fun (name, line) ->
      Alcotest.(check string)
        (name ^ " = tree path, wall_ms aside")
        (without_wall_ms tree) (without_wall_ms line))
    [ ("handle_line", batch); ("admit", socket); ("POST /solve", http) ];
  let cold = Jsonx.parse_exn cold and warm = Jsonx.parse_exn batch in
  Alcotest.(check bool)
    "warm solution = cold solution" true
    (Jsonx.equal
       (Option.get (get [ "solution" ] cold))
       (Option.get (get [ "solution" ] warm)));
  Alcotest.(check (option int))
    "warm cache_hits = a bank-memo hit's" (Some 2)
    (get_int [ "timing"; "cache_hits" ] warm);
  let stats = Service.stats_json service in
  Alcotest.(check (option int))
    "three response-cache hits" (Some 3)
    (get_int [ "response_cache"; "hits" ] stats);
  Alcotest.(check (option int))
    "one response-cache miss" (Some 1)
    (get_int [ "response_cache"; "misses" ] stats);
  check_partition stats

let test_warm_handle_line_allocation () =
  (* A warm handle_line splices the stored rendering, so its allocation is
     the request's parse, its key and the line, not a walk of the
     multi-kilobyte solution tree.  Counted over 200 repeats (the count
     is deterministic up to the digits of wall_ms): 1,329 words per
     request when spliced, 2,478 when the tree is re-rendered. *)
  with_cold_cache @@ fun () ->
  let service = Service.create ~log:ignore () in
  let req = cache_req ~id:1 in
  ignore (Service.handle_line service req);
  ignore (Service.handle_line service req);
  let n = 200 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (Service.handle_line service req))
  done;
  let per_request = (Gc.minor_words () -. w0) /. float_of_int n in
  if per_request > 1600. then
    Alcotest.failf "warm handle_line allocates %.0f minor words (bound 1600)"
      per_request

let test_http_framing_limits () =
  let service = Service.create ~log:ignore () in
  let server = Server.start ~workers:1 service ~http:("127.0.0.1", 0) () in
  let port = Option.get (Server.http_port server) in
  let roundtrip send =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
    let ic = Unix.in_channel_of_descr fd in
    let oc = Unix.out_channel_of_descr fd in
    output_string oc send;
    flush oc;
    let status_line = input_line ic in
    let status =
      match String.split_on_char ' ' (String.trim status_line) with
      | _ :: code :: _ -> int_of_string code
      | _ -> Alcotest.failf "bad status line %S" status_line
    in
    (* after an error response the server closes: reading to EOF must
       terminate rather than hang *)
    (try
       while true do
         ignore (input_line ic)
       done
     with End_of_file -> ());
    Unix.close fd;
    status
  in
  Alcotest.(check int) "garbage request line -> 400" 400
    (roundtrip "NOT-HTTP\r\n\r\n");
  Alcotest.(check int) "chunked rejected -> 400" 400
    (roundtrip
       "POST /solve HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
  Alcotest.(check int) "oversized body -> 413" 413
    (roundtrip
       (Printf.sprintf "POST /solve HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
          (2 * 1024 * 1024)));
  Server.stop server

(* ----------------------------- presolve --------------------------- *)

let test_presolve_warms_grid () =
  with_cold_cache @@ fun () ->
  let service = Service.create ~log:ignore () in
  (* 55 nm sits between the built-in nodes, so nothing else in the suite
     can have warmed these entries *)
  let grid =
    { Presolve.nodes_nm = [ 55. ]; capacities = [ 32768; 65536 ]; assocs = [ 4 ] }
  in
  let pre = Presolve.start ~grid service in
  wait_for ~budget_s:60. (fun () ->
      Option.value ~default:0 (get_int [ "passes" ] (Presolve.stats_json pre))
      >= 1);
  Presolve.stop pre;
  let ps = Presolve.stats_json pre in
  Alcotest.(check (option int)) "both points walked" (Some 2)
    (get_int [ "points_done" ] ps);
  Alcotest.(check (option int)) "no failures" (Some 0) (get_int [ "failed" ] ps);
  (* the pre-solver registered itself in the service stats, and its
     traffic stayed outside the request counters *)
  let stats = Service.stats_json service in
  Alcotest.(check bool)
    "presolve section registered" true
    (Option.is_some (get [ "presolve"; "passes" ] stats));
  Alcotest.(check (option int))
    "presolve traffic uncounted" (Some 0)
    (get_int [ "requests"; "lines" ] stats);
  check_partition stats;
  (* every in-grid request is now answered from the response cache *)
  let hits () =
    Option.value ~default:0
      (get_int [ "response_cache"; "hits" ] (Service.stats_json service))
  in
  let h0 = hits () in
  List.iteri
    (fun i point ->
      let line =
        Jsonx.to_string
          (match point with
          | Jsonx.Obj fields -> Jsonx.Obj (("id", Jsonx.Int i) :: fields)
          | j -> j)
      in
      let r = Jsonx.parse_exn (Service.handle_line service line) in
      Alcotest.(check (option bool))
        (Printf.sprintf "grid point %d ok" i)
        (Some true) (get_bool [ "ok" ] r))
    (Presolve.points grid);
  Alcotest.(check int) "all in-grid requests were warm hits" (h0 + 2) (hits ())

let test_presolve_stop_is_prompt () =
  with_cold_cache @@ fun () ->
  let service = Service.create ~log:ignore () in
  (* a grid big enough that the walk cannot finish instantly *)
  let pre = Presolve.start service in
  wait_for ~budget_s:60. (fun () ->
      Option.value ~default:0 (get_int [ "points_done" ] (Presolve.stats_json pre))
      >= 1);
  let t0 = Unix.gettimeofday () in
  Presolve.stop pre;
  let stop_s = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "stop returned in %.2f s" stop_s)
    true (stop_s < 30.);
  Alcotest.(check (option bool))
    "reports stopped" (Some true)
    (get_bool [ "stopped" ] (Presolve.stats_json pre))

(* ------------------------------ main ------------------------------ *)

let () =
  Alcotest.run "serve"
    [
      ( "jsonx",
        [
          Alcotest.test_case "parse basics" `Quick test_jsonx_parse_basics;
          Alcotest.test_case "escapes" `Quick test_jsonx_escapes;
          Alcotest.test_case "parse errors" `Quick test_jsonx_parse_errors;
          Alcotest.test_case "number policy" `Quick test_jsonx_numbers;
          QCheck_alcotest.to_alcotest prop_jsonx_roundtrip;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "decode errors" `Quick test_protocol_errors;
          Alcotest.test_case "response roundtrip" `Quick test_response_roundtrip;
          QCheck_alcotest.to_alcotest prop_request_roundtrip;
        ] );
      ( "batch",
        [
          Alcotest.test_case "memoized identical requests" `Quick
            test_batch_memo;
          Alcotest.test_case "fault containment" `Quick
            test_batch_fault_containment;
          Alcotest.test_case "run_batch channels" `Quick
            test_run_batch_channels;
        ] );
      ( "solve_cache",
        [ Alcotest.test_case "capacity + LRU" `Quick test_cache_capacity_lru ] );
      ( "persistence",
        [
          Alcotest.test_case "warm restart" `Quick test_persist_warm_restart;
          Alcotest.test_case "corrupt file -> cold start" `Quick
            test_persist_corrupt_cold_start;
        ] );
      ( "queue",
        [
          Alcotest.test_case "backpressure" `Quick test_queue_backpressure;
          Alcotest.test_case "worker drain" `Quick test_queue_worker_drain;
          Alcotest.test_case "rate-based retry hint" `Quick
            test_retry_after_rate_based;
        ] );
      ( "deadline",
        [
          Alcotest.test_case "queued job shed" `Quick test_deadline_queued_shed;
          Alcotest.test_case "mid-solve cancellation" `Quick
            test_deadline_cancels_mid_solve;
          Alcotest.test_case "no deadline, bit-identical" `Quick
            test_deadline_noop_bit_identity;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "worker fault contained" `Quick
            test_worker_fault_contained;
        ] );
      ( "drain",
        [
          Alcotest.test_case "refusal while draining" `Quick test_drain_refusal;
          Alcotest.test_case "stop cancels in-flight" `Quick
            test_socket_drain_cancels_inflight;
          Alcotest.test_case "concurrent stop" `Quick test_socket_stop_concurrent;
          Alcotest.test_case "liveness probe" `Quick test_socket_liveness_probe;
        ] );
      ( "socket",
        [
          Alcotest.test_case "concurrent clients" `Quick
            test_socket_concurrent_clients;
          Alcotest.test_case "fuzz line discipline" `Quick
            test_socket_fuzz_line_discipline;
        ] );
      ( "resp_cache",
        [
          Alcotest.test_case "= uncached solve" `Quick
            test_response_cache_uncached_solve;
          Alcotest.test_case "key" `Quick
            test_response_key_ignores_per_call_knobs;
          Alcotest.test_case "one warm path for every transport" `Quick
            test_warm_path_all_transports;
          Alcotest.test_case "warm handle_line allocation" `Quick
            test_warm_handle_line_allocation;
        ] );
      ( "http",
        [
          Alcotest.test_case "request line" `Quick test_http_parse_request_line;
          Alcotest.test_case "headers" `Quick test_http_parse_header;
          Alcotest.test_case "keep-alive" `Quick test_http_keep_alive;
          Alcotest.test_case "status mapping" `Quick test_http_status_of_body;
          Alcotest.test_case "end to end" `Quick test_http_end_to_end;
          Alcotest.test_case "framing limits" `Quick test_http_framing_limits;
        ] );
      ( "presolve",
        [
          Alcotest.test_case "warms the grid" `Quick test_presolve_warms_grid;
          Alcotest.test_case "prompt stop" `Quick test_presolve_stop_is_prompt;
        ] );
    ]
