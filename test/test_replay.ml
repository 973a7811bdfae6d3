(* Tests for the trace-replay subsystem (lib/replay) and the pluggable
   replacement policies (Mcsim.Policy / Cache_sim).

   The policy golden-sequence tests pin "replay policy semantics v1"
   exactly: the QLRU/MRU/Tree-PLRU definitions are reverse-engineered
   (uops.info / CacheTrace), so these hand-derived eviction sequences are
   the authoritative record of what this implementation does.  An
   intentional semantic change must re-derive them. *)

open Mcreplay

let tmp_file suffix =
  let path = Filename.temp_file "test_replay" suffix in
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
  path

let write_file path s =
  let oc = open_out path in
  output_string oc s;
  close_out oc

(* ------------------------- policy parsing ------------------------- *)

let policy = Alcotest.testable
    (fun ppf p -> Format.fprintf ppf "%s" (Mcsim.Policy.to_string p))
    ( = )

let check_parse name expect =
  match Mcsim.Policy.of_string name with
  | Ok p -> Alcotest.check policy name expect p
  | Error d -> Alcotest.failf "%s: unexpected error %s" name d.Cacti_util.Diag.reason

let check_reject ~reason name parse =
  match parse name with
  | Ok _ -> Alcotest.failf "%S should have been rejected" name
  | Error d ->
      Alcotest.(check string) (name ^ " reason") reason d.Cacti_util.Diag.reason

let test_policy_parse () =
  check_parse "lru" Mcsim.Policy.Lru;
  check_parse "LRU" Mcsim.Policy.Lru;
  check_parse "tree_plru" Mcsim.Policy.Tree_plru;
  check_parse "plru" Mcsim.Policy.Tree_plru;
  check_parse "mru" Mcsim.Policy.Mru;
  check_parse "MRU_N" Mcsim.Policy.Mru_n;
  check_parse "qlru_h11_m1_r0_u0"
    (Mcsim.Policy.Qlru { h2 = 1; h3 = 1; m = 1; r = 0; u = 0 });
  check_parse "QLRU_H00_M1_R1_U2"
    (Mcsim.Policy.Qlru { h2 = 0; h3 = 0; m = 1; r = 1; u = 2 });
  (* canonical names parse back *)
  List.iter
    (fun p ->
      check_parse (Mcsim.Policy.to_string p) p)
    [
      Mcsim.Policy.Lru; Mcsim.Policy.Tree_plru; Mcsim.Policy.Mru;
      Mcsim.Policy.Mru_n;
      Mcsim.Policy.Qlru { h2 = 2; h3 = 3; m = 0; r = 1; u = 1 };
    ]

(* Satellite: unknown names are typed refusals, never a silent fallback
   (CacheTrace silently substitutes Coffee Lake for unknown CPUs). *)
let test_policy_reject () =
  let pol = Mcsim.Policy.of_string in
  check_reject ~reason:"unknown_policy" "fifo" pol;
  check_reject ~reason:"unknown_policy" "" pol;
  check_reject ~reason:"unknown_policy" "qlru" pol;
  check_reject ~reason:"unknown_policy" "qlru_h11_m1_r2_u0" pol (* r > 1 *);
  check_reject ~reason:"unknown_policy" "qlru_h11_m1_r0_u3" pol (* u > 2 *);
  check_reject ~reason:"unknown_policy" "qlru_h41_m1_r0_u0" pol (* h > 3 *);
  check_reject ~reason:"unknown_policy" "qlru_h11_m1_r0" pol;
  let cpu = Mcsim.Policy.preset_of_string in
  check_reject ~reason:"unknown_cpu" "pentium4" cpu;
  check_reject ~reason:"unknown_cpu" "skl2" cpu;
  (* the error message lists every valid name *)
  (match cpu "zen3" with
  | Ok _ -> Alcotest.fail "zen3 accepted"
  | Error d ->
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i =
          i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
        in
        go 0
      in
      List.iter
        (fun name ->
          if not (contains d.Cacti_util.Diag.message name) then
            Alcotest.failf "error message misses %S" name)
        [ "nehalem|nhm"; "sandybridge|snb"; "ivybridge|ivb"; "haswell|hsw";
          "skylake|skl"; "coffeelake|cfl" ])

let test_presets () =
  let q h2 h3 m r u = Mcsim.Policy.Qlru { h2; h3; m; r; u } in
  let check short l1 l2 l3 =
    match Mcsim.Policy.preset_of_string short with
    | Error d -> Alcotest.failf "%s: %s" short d.Cacti_util.Diag.reason
    | Ok p ->
        Alcotest.check policy (short ^ ".l1") l1 p.Mcsim.Policy.l1;
        Alcotest.check policy (short ^ ".l2") l2 p.Mcsim.Policy.l2;
        Alcotest.check policy (short ^ ".l3") l3 p.Mcsim.Policy.l3
  in
  let plru = Mcsim.Policy.Tree_plru in
  check "nhm" plru plru Mcsim.Policy.Mru;
  check "snb" plru plru Mcsim.Policy.Mru_n;
  check "ivb" plru (q 0 0 1 0 1) (q 1 1 1 1 2);
  check "hsw" plru (q 0 0 1 0 1) (q 1 1 1 1 2);
  check "skylake" plru (q 0 0 1 0 1) (q 1 1 1 1 2);
  check "coffeelake" plru (q 0 0 1 0 1) (q 1 1 1 0 0);
  (* long and short names resolve to the same preset *)
  List.iter
    (fun (cpu, short) ->
      match Mcsim.Policy.preset_of_string short with
      | Ok q -> Alcotest.(check string) short cpu q.Mcsim.Policy.cpu
      | Error _ -> Alcotest.failf "short name %s" short)
    [ ("nehalem", "nhm"); ("sandybridge", "snb"); ("ivybridge", "ivb");
      ("haswell", "hsw"); ("skylake", "skl"); ("coffeelake", "cfl") ]

let prop_qlru_roundtrip =
  QCheck.Test.make ~name:"qlru name roundtrips" ~count:100
    QCheck.(quad (int_range 0 3) (int_range 0 3) (int_range 0 3)
              (pair (int_range 0 1) (int_range 0 2)))
    (fun (h2, h3, m, (r, u)) ->
      let p = Mcsim.Policy.Qlru { h2; h3; m; r; u } in
      match Mcsim.Policy.of_string (Mcsim.Policy.to_string p) with
      | Ok p' -> p = p'
      | Error _ -> false)

(* --------------------- policy golden sequences --------------------- *)

(* Drive a single-set 4-way cache and record each fill's victim line
   (-1 when an invalid way absorbed the fill).  [A] accesses must hit. *)
type op = F of int | A of int

let run_policy policy ops =
  let c = Mcsim.Cache_sim.create ~assoc:4 ~policy ~lines:4 () in
  List.filter_map
    (function
      | A line -> (
          if Mcsim.Cache_sim.access_int c ~line ~write:false < 0 then
            Alcotest.failf "access %d missed" line
          else None)
      | F line ->
          (* state 2 = E; a victim comes back as [line * 4 + state] *)
          let ev = Mcsim.Cache_sim.fill_packed c ~line ~state_int:2 in
          Some (if ev < 0 then -1 else ev lsr 2))
    ops

let check_seq name policy ops expected =
  Alcotest.(check (list int)) name expected (run_policy policy ops)

let test_golden_tree_plru () =
  check_seq "tree_plru" Mcsim.Policy.Tree_plru
    [ F 0; F 1; F 2; F 3; F 4; A 1; F 5 ]
    [ -1; -1; -1; -1; 0; 2 ]

let test_golden_qlru_r0_u0 () =
  (* cfl L3: hits refresh to age 1, insert at 1, leftmost victim, aging
     only on demand *)
  let p = Mcsim.Policy.Qlru { h2 = 1; h3 = 1; m = 1; r = 0; u = 0 } in
  check_seq "qlru_h11_m1_r0_u0" p
    [ F 10; F 11; F 12; F 13; F 14; F 15; A 14; F 16; F 17; F 18 ]
    [ -1; -1; -1; -1; 10; 11; 12; 13; 15 ]

let test_golden_qlru_r0_u1 () =
  (* ivb+ L2: every fill ages the other ways *)
  let p = Mcsim.Policy.Qlru { h2 = 0; h3 = 0; m = 1; r = 0; u = 1 } in
  check_seq "qlru_h00_m1_r0_u1" p
    [ F 20; F 21; F 22; F 23; F 24; F 25; A 24; F 26 ]
    [ -1; -1; -1; -1; 20; 21; 22 ]

let test_golden_qlru_r1_u2 () =
  (* skl L3: round-robin victim pointer, aging on every fill and hit *)
  let p = Mcsim.Policy.Qlru { h2 = 1; h3 = 1; m = 1; r = 1; u = 2 } in
  check_seq "qlru_h11_m1_r1_u2" p
    [ F 30; F 31; F 32; F 33; F 34; F 35; A 34; F 36; F 37 ]
    [ -1; -1; -1; -1; 30; 31; 32; 33 ]

let test_golden_mru () =
  check_seq "mru" Mcsim.Policy.Mru
    [ F 40; F 41; F 42; F 43; F 44; F 45; F 46; A 45; F 47; F 48 ]
    [ -1; -1; -1; -1; 40; 41; 42; 43; 44 ]

let test_golden_mru_n () =
  (* ends with the all-bits-set fallback: hits never clear other ways'
     bits, so the set saturates and way 0 is evicted *)
  check_seq "mru_n" Mcsim.Policy.Mru_n
    [ F 50; F 51; F 52; F 53; F 54; F 55; A 54; A 52; A 53; F 56 ]
    [ -1; -1; -1; -1; 50; 51; 54 ]

let test_golden_lru () =
  check_seq "lru" Mcsim.Policy.Lru
    [ F 60; F 61; F 62; F 63; A 60; F 64; F 65 ]
    [ -1; -1; -1; -1; 61; 62 ]

(* ----------------------- study machines --------------------------- *)

(* A small simulator machine for [Replayer.of_machine]: 2 cores, a
   2-bank L3 behind a crossbar. *)

let tiny_cache ~lines ~assoc ~latency : Mcsim.Machine.cache_params =
  {
    Mcsim.Machine.lines; assoc; latency; cycle = 1;
    e_read = 0.1e-9; e_write = 0.12e-9; p_leak = 0.01; p_refresh = 0.;
  }

let test_machine : Mcsim.Machine.t =
  {
    Mcsim.Machine.name = "replay-test";
    n_cores = 2;
    threads_per_core = 2;
    clock_hz = 2e9;
    l1 = tiny_cache ~lines:128 ~assoc:4 ~latency:2;
    l2 = tiny_cache ~lines:1024 ~assoc:8 ~latency:5;
    l3 =
      Some
        {
          Mcsim.Machine.bank = tiny_cache ~lines:4096 ~assoc:8 ~latency:6;
          n_banks = 2;
          xbar_latency = 3;
          e_xbar = 0.3e-9;
          p_xbar_leak = 0.05;
        };
    mem =
      {
        Mcsim.Machine.timing =
          Mcsim.Dram_sim.basic_timing ~t_rcd:24 ~t_cas:26 ~t_rp:12 ~t_rc:82
            ~t_rrd:8 ~t_burst:5 ~t_ctrl:20;
        policy = Mcsim.Dram_sim.Open_page;
        powerdown = None;
        n_channels = 1;
        n_banks = 8;
        n_chips_per_rank = 8;
        e_activate = 16e-9;
        e_read = 6e-9;
        e_write = 7e-9;
        p_standby = 0.7;
        p_refresh = 0.08;
        bus_mw_per_gbps = 2.0;
        line_transfer_gbits = 512e-9;
      };
    core_power = 10.;
    instr_per_fetch_line = 8;
  }

(* --------------------------- trace I/O ----------------------------- *)

let collect_iter iter =
  let acc = ref [] in
  let n = iter ~f:(fun ~tid ~write ~addr -> acc := (tid, write, addr) :: !acc) in
  (n, List.rev !acc)

let records = Alcotest.(list (triple int bool int))

let test_text_parse () =
  let path = tmp_file ".trc" in
  write_file path
    "# leading comment\n\
     \n\
     R 0x1000\n\
     W 0x2a40 3   # trailing comment\n\
     r 4096\n\
     w 0X10 65535\n\
     R 7 # decimal\n";
  let n, got = collect_iter (Trace_io.iter_file ~format:Trace_io.Text path) in
  Alcotest.(check int) "count" 5 n;
  Alcotest.check records "records"
    [
      (0, false, 0x1000); (3, true, 0x2a40); (0, false, 4096);
      (65535, true, 0x10); (0, false, 7);
    ]
    got

(* The text grammar at its edges, pinned exactly: the records of an
   accepted input, or the line and message of the first malformed one. *)
let test_text_malformed () =
  let bad ?(line = 1) msg = Error (line, msg) in
  let cases =
    [
      ("bad op", "X 0x10\n", bad {|expected R or W, got "X"|});
      ("missing addr", "R\n", bad {|malformed record "R"|});
      ("bad addr", "R zz\n", bad {|address "zz" is not a number|});
      ("negative addr", "R -4\n", bad {|address "-4" out of range [0, 2^62)|});
      ( "bad tid", "R 0x10 hello\n",
        bad {|thread id "hello" is not an integer|} );
      ( "tid too large", "R 0x10 70000\n",
        bad {|thread id 70000 out of range [0, 65535]|} );
      ( "negative tid", "R 0x10 -1\n",
        bad {|thread id -1 out of range [0, 65535]|} );
      ("extra column", "R 0x10 1 2\n", bad {|malformed record "R 0x10 1 2"|});
      ( "four tokens, tabs", "W\t0x10\t1\t2  # c\n",
        bad {|malformed record "W\t0x10\t1\t2"|} );
      ("CRLF", "R 0x10\r\nW 0x20 3\r\n", Ok [ (0, false, 16); (3, true, 32) ]);
      ( "tabs", "R\t0x10\n\tW\t\t0x20 \t3\t\n",
        Ok [ (0, false, 16); (3, true, 32) ] );
      ("CRLF, tab, comment", "r\t4096\t# c\r\n", Ok [ (0, false, 4096) ]);
      ( "form feed and CR at the ends", "\012R 0x10 3 \r\012\n\r\tW 7\r\n",
        Ok [ (3, false, 16); (0, true, 7) ] );
      ( "form feed inside a line", "R\0120x10\n",
        bad {|malformed record "R\0120x10"|} );
      ( "form feed ends a token", "R 0x10\012 3\n",
        bad {|address "0x10\012" is not a number|} );
      ( "CR between separators", "R \r 0x10\n",
        bad {|address "\r" is not a number|} );
      ("# right after the op", "R# 0x10\n", bad {|malformed record "R"|});
      ("RW op", "RW 0x10\n", bad {|expected R or W, got "RW"|});
      ("op before address", "X zz\n", bad {|expected R or W, got "X"|});
      ( "address before tid", "R zz hello\n",
        bad {|address "zz" is not a number|} );
      ("hex tid", "R 0x10 0x3\n", Ok [ (3, false, 16) ]);
      ("underscore address", "W 1_000\n", Ok [ (0, true, 1000) ]);
      ("signed address", "R +5\n", Ok [ (0, false, 5) ]);
      ( "other bases", "R 0o17 0b11\nW 0u9\n",
        Ok [ (3, false, 15); (0, true, 9) ] );
      ( "longest canonical",
        "R 0xfffffffffffffff 65535\nW 999999999999999999\n",
        Ok
          [ (65535, false, (1 lsl 60) - 1); (0, true, 999_999_999_999_999_999) ]
      );
      ( "16 hex and 19 decimal digits",
        "R 0x3fffffffffffffff\nW 1000000000000000000\n",
        Ok
          [ (0, false, Trace_io.max_addr);
            (0, true, 1_000_000_000_000_000_000) ] );
      ("0x without digits", "R 0x\n", bad {|address "0x" is not a number|});
      ( "address 2^62 in hex", "R 0x4000000000000000\n",
        bad {|address "0x4000000000000000" out of range [0, 2^62)|} );
      ( "address 2^62 in decimal", "R 4611686018427387904\n",
        bad {|address "4611686018427387904" is not a number|} );
      ( "19-digit decimal", "R 9999999999999999999\n",
        bad {|address "9999999999999999999" is not a number|} );
      ( "blank and comment lines count",
        "# header\n\n   \n\t# indented\nR 0x10\n\nW zz\n",
        bad ~line:7 {|address "zz" is not a number|} );
      ( "no final newline", "R 0x10\nW 0x20 7",
        Ok [ (0, false, 16); (7, true, 32) ] );
      ( "bad last line without newline", "R 0x10\nR zz",
        bad ~line:2 {|address "zz" is not a number|} );
      ("only blanks", "\n \t\r\012\n# c", Ok []);
    ]
  in
  let outcome = Alcotest.(result records (pair int string)) in
  List.iter
    (fun (name, text, want) ->
      let path = tmp_file ".trc" in
      write_file path text;
      let got =
        match collect_iter (Trace_io.iter_file ~format:Trace_io.Text path) with
        | n, recs ->
            Alcotest.(check int) (name ^ " count") (List.length recs) n;
            Ok recs
        | exception Trace_io.Parse_error { line; msg; _ } -> Error (line, msg)
      in
      Alcotest.check outcome name want got)
    cases

(* The in-place scanner against the split-based reader it replaced
   (test/oracle/trace_text_naive.ml): same records, same count, and the
   same [Parse_error] line and message. *)
let text_outcome =
  let path = lazy (tmp_file ".trc") in
  fun iter text ->
    let path = Lazy.force path in
    Out_channel.with_open_bin path (fun oc -> output_string oc text);
    In_channel.with_open_bin path (fun ic ->
        match collect_iter (iter ~path ic) with
        | n, recs -> Ok (n, recs)
        | exception Trace_io.Parse_error { line; msg; _ } -> Error (line, msg))

let scanner_matches_oracle text =
  let scanner ~path ic = Trace_io.iter_channel ~path Trace_io.Text ic in
  text_outcome scanner text
  = text_outcome Oracle.Trace_text_naive.iter_text text

(* Record bytes, the trimmed blanks, and bytes that must stay token
   bytes: vertical tab (never trimmed), NUL and a byte above 0x7f. *)
let adversarial_bytes =
  [ 'R'; 'W'; 'r'; 'w'; ' '; '\t'; '\r'; '\n'; '\012'; '\011'; '\000';
    '\255'; '#'; '0'; '1'; '7'; '9'; 'x'; 'X'; 'f'; 'F'; '_'; '+'; '-'; 'o';
    'b'; 'u' ]

let gen_bytes alphabet lo hi =
  QCheck.Gen.(string_size ~gen:(oneofl alphabet) (int_range lo hi))

(* Numbers of every length around the canonical limits, in both cases of
   hex, plus the other [int_of_string] forms and out-of-range literals. *)
let gen_number =
  QCheck.Gen.(
    frequency
      [
        (4, map (( ^ ) "0x") (gen_bytes [ '0'; '9'; 'a'; 'f'; 'A'; 'F' ] 1 17));
        (1, map (( ^ ) "0X") (gen_bytes [ '1'; 'c'; 'E' ] 1 16));
        (4, gen_bytes [ '0'; '1'; '2'; '5'; '9' ] 1 20);
        ( 3,
          oneofl
            [ "0x"; "0X"; "0x4000000000000000"; "0x3fffffffffffffff";
              "0xFFFFFFFFFFFFFFFF"; "4611686018427387903";
              "4611686018427387904"; "9999999999999999999"; "65535"; "65536";
              "99999"; "1_000"; "+5"; "-4"; "-0"; "+0x10"; "0o17"; "0b11";
              "0u9"; "0x_1"; "1_"; "_1"; "0x1g" ] );
        (1, gen_bytes adversarial_bytes 1 5);
      ])

(* Accepted address and tid spellings: canonical ones of every length,
   the longest in-range ones, and the other [int_of_string] forms. *)
let gen_valid_addr =
  QCheck.Gen.(
    frequency
      [
        (4, map (( ^ ) "0x") (gen_bytes [ '0'; '7'; 'a'; 'f'; 'B'; 'E' ] 1 15));
        ( 1,
          map2 ( ^ )
            (oneofl [ "0x3"; "0X1"; "0x0" ])
            (gen_bytes [ '0'; 'f'; 'F' ] 15 15) );
        (4, gen_bytes [ '0'; '1'; '4'; '8'; '9' ] 1 18);
        (1, map (( ^ ) "1") (gen_bytes [ '0'; '3' ] 18 18));
        ( 1,
          oneofl
            [ "1_000"; "+5"; "0o17"; "0b11"; "0u9"; "-0"; "+0x10"; "00012";
              "4611686018427387903"; "0x3fffffffffffffff" ] );
      ])

let gen_valid_tid =
  QCheck.Gen.(
    frequency
      [ (4, map string_of_int (int_range 0 Trace_io.max_tid));
        (1, oneofl [ "0x3"; "0b1"; "+7"; "00065535"; "1_0"; "0" ]) ])

(* Mostly lines that parse, in every spacing; some record-shaped lines
   with any part perturbed; some lines of adversarial bytes. *)
let gen_text_line =
  QCheck.Gen.(
    let blank = oneofl [ ""; ""; ""; " "; "\t"; "\r"; "\012"; " \t\r" ] in
    let sep = oneofl [ " "; "\t"; "  "; " \t " ] in
    let comment =
      frequency
        [ (6, return "");
          (1, map (( ^ ) "#") (gen_bytes adversarial_bytes 0 6)) ]
    in
    let line ~op ~sep ~addr ~tid ~extra ~eol =
      let* b0 = blank and* o = op and* a = map2 ( ^ ) sep addr
      and* t = frequency [ (1, return ""); (1, map2 ( ^ ) sep tid) ]
      and* x = extra and* b1 = blank and* c = comment and* e = eol in
      return (String.concat "" [ b0; o; a; t; x; b1; c; e ])
    in
    let valid =
      line ~op:(oneofl [ "R"; "W"; "r"; "w" ]) ~sep ~addr:gen_valid_addr
        ~tid:gen_valid_tid ~extra:(return "") ~eol:(oneofl [ "\n"; "\r\n" ])
    in
    let perturbed =
      line
        ~op:
          (frequency
             [ (3, oneofl [ "R"; "w" ]);
               (1, oneofl [ "X"; "RW"; "R#"; "#"; "" ]) ])
        ~sep:(frequency [ (3, sep); (1, oneofl [ "\r"; "\012"; " \r "; "" ]) ])
        ~addr:gen_number ~tid:gen_number
        ~extra:(frequency [ (2, return ""); (1, map2 ( ^ ) sep gen_number) ])
        ~eol:(oneofl [ "\n"; "\r\n"; "" ])
    in
    frequency
      [ (10, valid); (1, perturbed); (1, gen_bytes adversarial_bytes 0 24) ])

let prop_text_scanner_random =
  QCheck.Test.make ~name:"text scanner = naive reader (random lines)"
    ~count:2000 ~long_factor:10
    (QCheck.make ~print:String.escaped
       QCheck.Gen.(
         map (String.concat "") (list_size (int_range 0 12) gen_text_line)))
    scanner_matches_oracle

(* Files of two to seven 64 KiB blocks: valid lines of every spelling, so
   lines straddle each block boundary; optionally a padding comment that
   puts a line at one of the 24 bytes before the first boundary, a line
   longer than a block, a malformed line, and no final newline. *)
let gen_multi_block =
  QCheck.Gen.(
    let* seed = int and* pad = opt (int_range 0 24) and* long = int_range 0 4
    and* bad =
      opt (oneofl [ "R zz"; "X 0x10"; "W 0x10 70000"; "R 1 2 3"; "R \r 5" ])
    and* newline = bool in
    let st = Random.State.make [| seed |] in
    let b = Buffer.create 300_000 in
    Option.iter
      (fun k -> Buffer.add_string b ("#" ^ String.make (65534 - k) 'p' ^ "\n"))
      pad;
    let n = 6000 + Random.State.int st 10_000 in
    let long_at = Random.State.int st n and bad_at = Random.State.int st n in
    for i = 0 to n - 1 do
      if i = long_at then
        Buffer.add_string b
          (match long with
          | 1 -> "# " ^ String.make 70_000 'c' ^ "\n"
          | 2 -> String.make 70_000 ' ' ^ "W 0x40 2\n"
          | 3 -> "R " ^ String.make 70_000 '0' ^ "1\n"
          | 4 -> "R " ^ String.make 70_000 '9' ^ "\n"
          | _ -> "");
      (match bad with
      | Some l when i = bad_at -> Buffer.add_string b (l ^ "\n")
      | _ -> ());
      (* up to 2^60: 15 hex digits, and 19 decimal ones past 10^18 *)
      let addr = Random.State.bits st lor (Random.State.bits st lsl 30) in
      let tid = Random.State.int st 65536 in
      Buffer.add_string b
        (match Random.State.int st 6 with
        | 0 -> Printf.sprintf "R 0x%x %d\n" addr tid
        | 1 -> Printf.sprintf "w\t0X%X\r\n" addr
        | 2 -> Printf.sprintf "W %d\t%d # c\n" addr tid
        | 3 -> Printf.sprintf " r 0x%x 0x%x \n" addr (tid land 0xFF)
        | 4 -> "\n"
        | _ -> Printf.sprintf "R %d %d\n" addr (tid land 3))
    done;
    let text = Buffer.contents b in
    let len = String.length text in
    return (if newline then text else String.sub text 0 (len - 1)))

let prop_text_scanner_blocks =
  QCheck.Test.make ~name:"text scanner = naive reader (multi-block files)"
    ~count:24
    (QCheck.make
       ~print:(fun t ->
         Printf.sprintf "%d bytes: %S ..." (String.length t)
           (String.sub t 0 (min 200 (String.length t))))
       gen_multi_block)
    scanner_matches_oracle

let test_binary_malformed () =
  let magic = "CACTIRPB" in
  let version = "\x01\x00\x00\x00" in
  let cases =
    [
      ("bad magic", "CACTIRPX" ^ version);
      ("bad version", magic ^ "\x02\x00\x00\x00");
      ("truncated header", "CACTI");
      ("missing terminator", magic ^ version);
      ( "truncated record",
        magic ^ version ^ "\x01\x00\x00\x00" ^ "\x00\x00\x00" );
      ( "bad flags",
        magic ^ version ^ "\x01\x00\x00\x00"
        ^ "\x04\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"
        ^ "\x00\x00\x00\x00" );
      ( "trailing bytes",
        magic ^ version ^ "\x00\x00\x00\x00" ^ "junk" );
    ]
  in
  List.iter
    (fun (name, bytes) ->
      let path = tmp_file ".crtb" in
      let oc = open_out_bin path in
      output_string oc bytes;
      close_out oc;
      match
        collect_iter (Trace_io.iter_file ~format:Trace_io.Binary path)
      with
      | exception Trace_io.Parse_error _ -> ()
      | _ -> Alcotest.failf "%s: accepted" name)
    cases

let test_detect () =
  let t = tmp_file ".trc" in
  write_file t "R 0x10\n";
  Alcotest.(check bool) "text" true (Trace_io.detect_file t = Trace_io.Text);
  let b = tmp_file ".crtb" in
  let oc = open_out_bin b in
  let w = Trace_io.open_writer Trace_io.Binary oc in
  Trace_io.write_record w ~tid:0 ~write:false ~addr:16;
  Trace_io.close_writer w;
  close_out oc;
  Alcotest.(check bool) "binary" true
    (Trace_io.detect_file b = Trace_io.Binary)

let gen_records =
  QCheck.(
    list_of_size (Gen.int_range 0 200)
      (triple (int_range 0 Trace_io.max_tid) bool
         (int_range 0 (1 lsl 48))))

let roundtrip_via format recs =
  let path = tmp_file ".any" in
  let oc = open_out_bin path in
  let w = Trace_io.open_writer format oc in
  List.iter (fun (tid, write, addr) -> Trace_io.write_record w ~tid ~write ~addr) recs;
  Trace_io.close_writer w;
  close_out oc;
  let _, got = collect_iter (Trace_io.iter_file ~format path) in
  got

let prop_writer_roundtrip format name =
  QCheck.Test.make ~name ~count:50 gen_records (fun recs ->
      roundtrip_via format recs = recs)

let prop_convert_roundtrip =
  (* text -> binary -> text preserves the record sequence exactly *)
  QCheck.Test.make ~name:"convert roundtrips text<->binary" ~count:50
    gen_records (fun recs ->
      let a = tmp_file ".trc" in
      let oc = open_out a in
      let w = Trace_io.open_writer Trace_io.Text oc in
      List.iter
        (fun (tid, write, addr) -> Trace_io.write_record w ~tid ~write ~addr)
        recs;
      Trace_io.close_writer w;
      close_out oc;
      let b = tmp_file ".crtb" in
      let c = tmp_file ".trc" in
      let count = function Ok n -> n | Error _ -> -1 in
      let n1 =
        count (Trace_io.convert ~src:a ~dst:b ~dst_format:Trace_io.Binary ())
      in
      let n2 =
        count (Trace_io.convert ~src:b ~dst:c ~dst_format:Trace_io.Text ())
      in
      let _, got = collect_iter (Trace_io.iter_file c) in
      n1 = List.length recs && n2 = n1 && got = recs)

(* Satellite: a destination in a nonexistent directory is a typed Diag
   refusal, not a raw Sys_error. *)
let test_convert_output_dir () =
  let src = tmp_file ".trc" in
  write_file src "R 0x1000\n";
  let dst =
    Filename.concat
      (Filename.concat (Filename.get_temp_dir_name ()) "no_such_dir_xyzzy")
      "out.crtb"
  in
  match Trace_io.convert ~src ~dst ~dst_format:Trace_io.Binary () with
  | Ok _ -> Alcotest.fail "missing output directory accepted"
  | Error d ->
      Alcotest.(check string) "reason" "output_dir_missing"
        d.Cacti_util.Diag.reason;
      Alcotest.(check bool) "severity" true
        (d.Cacti_util.Diag.severity = Cacti_util.Diag.Error)

(* ----------------------- loaded binary traces ---------------------- *)

let write_trace format recs =
  let path =
    tmp_file (match format with Trace_io.Binary -> ".crtb" | Text -> ".trc")
  in
  let oc = open_out_bin path in
  let w = Trace_io.open_writer format oc in
  Array.iter
    (fun (tid, write, addr) -> Trace_io.write_record w ~tid ~write ~addr)
    recs;
  Trace_io.close_writer w;
  close_out oc;
  path

let write_binary_trace = write_trace Trace_io.Binary

let test_map_binary () =
  (* more records than one writer chunk (65536), so the file has several
     chunks *)
  let n = 70_000 in
  let recs =
    Array.init n (fun i ->
        (i land 0xFFFF, i land 1 = 0, (i * 2654435761) land 0xFFFFFFFF))
  in
  let path = write_binary_trace recs in
  let src = Trace_io.load_source path in
  Alcotest.(check int) "source_length" n (Trace_io.source_length src);
  let i = ref 0 in
  Trace_io.iter_source src ~f:(fun ~tid ~write ~addr ->
      let etid, ewrite, eaddr = recs.(!i) in
      if tid <> etid || write <> ewrite || addr <> eaddr then
        Alcotest.failf "record %d differs" !i;
      incr i);
  Alcotest.(check int) "iterated all" n !i;
  (* empty trace maps fine *)
  let empty = write_binary_trace [||] in
  Alcotest.(check int) "empty" 0
    (Trace_io.source_length (Trace_io.load_source empty))

let test_map_malformed () =
  let magic = "CACTIRPB" in
  let version = "\x01\x00\x00\x00" in
  let cases =
    [
      ("empty file", "");
      ("bad magic", "CACTIRPX" ^ version);
      ("bad version", magic ^ "\x02\x00\x00\x00");
      ("truncated header", "CACTI");
      ("missing terminator", magic ^ version);
      ( "truncated record",
        magic ^ version ^ "\x01\x00\x00\x00" ^ "\x00\x00\x00" );
      ( "bad flags",
        magic ^ version ^ "\x01\x00\x00\x00"
        ^ "\x04\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"
        ^ "\x00\x00\x00\x00" );
      ( "oversized address",
        magic ^ version ^ "\x01\x00\x00\x00"
        ^ "\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\xFF"
        ^ "\x00\x00\x00\x00" );
      ("trailing bytes", magic ^ version ^ "\x00\x00\x00\x00" ^ "junk");
    ]
  in
  List.iter
    (fun (name, bytes) ->
      let path = tmp_file ".crtb" in
      let oc = open_out_bin path in
      output_string oc bytes;
      close_out oc;
      match
        Trace_io.iter_source
          (Trace_io.load_source ~format:Trace_io.Binary path)
          ~f:(fun ~tid:_ ~write:_ ~addr:_ -> ())
      with
      | exception Trace_io.Parse_error _ -> ()
      | () -> Alcotest.failf "%s: accepted" name)
    cases

(* The binary readers against a model: a file of random records, in
   chunks of 1-3, read by the source stream ([iter_source]) and the
   channel reader ([iter_file]) must give the generated records, or the
   [Parse_error] (path, line and message) of its first bad record.
   Bad records have a flag byte other than 0 or 1, or an address with
   bit 62 or 63 set (the top two bits of byte 10). *)
let gen_binary_record =
  QCheck.Gen.(
    let* flags = frequency [ (8, int_bound 1); (1, int_range 2 255) ]
    and* tid =
      frequency [ (1, return 0); (1, return 65535); (3, int_bound 65535) ]
    and* hi = int_bound 0x7FFFFFFF
    and* lo = int_bound 0x7FFFFFFF
    and* top = frequency [ (12, return 0); (1, int_range 1 3) ] in
    let addr = Int64.of_int ((hi lsl 31) lor lo) in
    return
      (flags, tid, Int64.logor addr (Int64.shift_left (Int64.of_int top) 62)))

let binary_model chunks =
  let recs = List.concat chunks in
  let rec first i = function
    | [] ->
        Ok (List.map (fun (fl, tid, a) -> (tid, fl = 1, Int64.to_int a)) recs)
    | (fl, _, a) :: rest ->
        if fl > 1 then
          Error (i + 1, Printf.sprintf "invalid flag byte 0x%02x" fl)
        else if Int64.shift_right_logical a 62 <> 0L then
          Error
            (i + 1, Printf.sprintf "address 0x%Lx out of range [0, 2^62)" a)
        else first (i + 1) rest
  in
  first 0 recs

let binary_file_of chunks =
  let b = Buffer.create 256 in
  Buffer.add_string b "CACTIRPB";
  Buffer.add_int32_le b 1l;
  List.iter
    (fun chunk ->
      Buffer.add_int32_le b (Int32.of_int (List.length chunk));
      List.iter
        (fun (fl, tid, a) ->
          Buffer.add_uint8 b fl;
          Buffer.add_uint16_le b tid;
          Buffer.add_int64_le b a)
        chunk)
    chunks;
  Buffer.add_int32_le b 0l;
  Buffer.contents b

let prop_binary_decoders =
  let path = lazy (tmp_file ".crtb") in
  let gen =
    QCheck.Gen.(
      list_size (int_bound 12) (list_size (int_range 1 3) gen_binary_record))
  in
  let show (fl, tid, a) = Printf.sprintf "%d/%d/0x%Lx" fl tid a in
  let print chunks =
    String.concat " | "
      (List.map (fun chunk -> String.concat " " (List.map show chunk)) chunks)
  in
  QCheck.Test.make ~name:"binary decoders = record model" ~count:500
    (QCheck.make ~print gen) (fun chunks ->
      let path = Lazy.force path in
      Out_channel.with_open_bin path (fun oc ->
          output_string oc (binary_file_of chunks));
      let outcome read =
        match read () with
        | recs -> Ok recs
        | exception Trace_io.Parse_error { path = p; line; msg } ->
            if p <> path then Error (-1, "path " ^ p) else Error (line, msg)
      in
      let collect iter =
        let acc = ref [] in
        iter ~f:(fun ~tid ~write ~addr -> acc := (tid, write, addr) :: !acc);
        List.rev !acc
      in
      let stream () =
        collect (Trace_io.iter_source (Trace_io.load_source path))
      in
      let channel () =
        collect (fun ~f ->
            ignore (Trace_io.iter_file ~format:Trace_io.Binary path ~f : int))
      in
      let expected = binary_model chunks in
      outcome stream = expected && outcome channel = expected)

let prop_records_roundtrip =
  QCheck.Test.make ~name:"of_records/iter_source roundtrips" ~count:100
    gen_records (fun recs ->
      let src = Trace_io.of_records (Array.of_list recs) in
      let acc = ref [] in
      Trace_io.iter_source src ~f:(fun ~tid ~write ~addr ->
          acc := (tid, write, addr) :: !acc);
      List.rev !acc = recs)

(* --------------------------- replayer ------------------------------ *)

let small_config =
  (* tiny hierarchy so evictions happen quickly: 8-line 2-way L1,
     16-line 4-way L2, 32-line 4-way L3 *)
  {
    Replayer.l1 =
      { Replayer.lines = 8; assoc = 2; latency = 4; policy = Mcsim.Policy.Lru };
    l2 =
      { Replayer.lines = 16; assoc = 4; latency = 14; policy = Mcsim.Policy.Lru };
    l3 =
      Some
        { Replayer.lines = 32; assoc = 4; latency = 42;
          policy = Mcsim.Policy.Lru };
    mem_latency = 200;
    line_bytes = 64;
    n_cores = 2;
  }

let test_replayer_basics () =
  let r = Replayer.create Replayer.default_config in
  let o = Replayer.step r ~tid:0 ~write:false ~addr:0x1000 in
  Alcotest.(check int) "cold miss level" 3 o.Replayer.level;
  Alcotest.(check int) "cold miss cycles" (4 + 14 + 42 + 200)
    o.Replayer.cycles;
  let o = Replayer.step r ~tid:0 ~write:false ~addr:0x1008 in
  Alcotest.(check int) "same-line hit level" 0 o.Replayer.level;
  Alcotest.(check int) "L1 hit cycles" 4 o.Replayer.cycles;
  let s = Replayer.summary r in
  Alcotest.(check int) "accesses" 2 s.Replayer.accesses;
  Alcotest.(check int) "l1 hits" 1 s.Replayer.l1_hits;
  Alcotest.(check int) "mem accesses" 1 s.Replayer.mem_accesses

let test_replayer_coherence () =
  let r = Replayer.create small_config in
  (* core 0 dirties a line; core 1's read must c2c it *)
  ignore (Replayer.step r ~tid:0 ~write:true ~addr:0x400);
  let o = Replayer.step r ~tid:1 ~write:false ~addr:0x400 in
  Alcotest.(check bool) "read of peer-dirty is c2c" true o.Replayer.c2c;
  (* core 1 writes: core 0's copy must be invalidated *)
  let o = Replayer.step r ~tid:1 ~write:true ~addr:0x400 in
  Alcotest.(check bool) "write invalidates peer" true
    (o.Replayer.invalidations > 0);
  let s = Replayer.summary r in
  Alcotest.(check int) "c2c transfers" 1 s.Replayer.c2c_transfers;
  Alcotest.(check bool) "invalidations counted" true
    (s.Replayer.invalidations > 0)

(* A deterministic access mix over two working sets (LCG, fixed seed). *)
let synthetic_records n =
  let state = ref 0x12345678 in
  let next () =
    state := (!state * 1103515245 + 12345) land 0x3FFFFFFF;
    !state
  in
  Array.init n (fun _ ->
      let r = next () in
      let addr =
        if r land 3 < 3 then (r lsr 2) land 0xFFF (* 4 KB hot *)
        else 0x100000 + ((r lsr 2) land 0xFFFF) (* 64 KB cold *)
      in
      (r lsr 20 land 3, r land 4 = 0, addr))

let replay_csv config recs =
  let r = Replayer.create config in
  let b = Buffer.create 4096 in
  Buffer.add_string b Report.csv_header;
  Buffer.add_char b '\n';
  Array.iteri
    (fun seq (tid, write, addr) ->
      let o = Replayer.step r ~tid ~write ~addr in
      Report.append_csv_row b ~seq ~tid ~write ~addr
        ~line_bytes:config.Replayer.line_bytes o)
    recs;
  (Buffer.contents b, Replayer.summary r)

let test_replay_deterministic () =
  let recs = synthetic_records 5_000 in
  let csv1, s1 = replay_csv small_config recs in
  let csv2, s2 = replay_csv small_config recs in
  Alcotest.(check bool) "CSV byte-identical" true (String.equal csv1 csv2);
  Alcotest.(check bool) "summaries identical" true (s1 = s2);
  (* and with a non-LRU preset *)
  let cfg =
    match Mcsim.Policy.preset_of_string "skl" with
    | Ok p -> Replayer.with_preset p small_config
    | Error _ -> assert false
  in
  let csv3, _ = replay_csv cfg recs in
  let csv4, _ = replay_csv cfg recs in
  Alcotest.(check bool) "skl CSV byte-identical" true
    (String.equal csv3 csv4);
  Alcotest.(check bool) "policies change the stream" true
    (not (String.equal csv1 csv3))

let test_replay_golden () =
  (* pins the exact per-access stream of a tiny replay; a change here is
     a semantic change to the replayer or the CSV schema *)
  let recs =
    [| (0, false, 0x0); (0, false, 0x40); (0, true, 0x0); (1, false, 0x0);
       (1, true, 0x40); (0, false, 0x40) |]
  in
  let csv, _ = replay_csv small_config recs in
  (* seq 3: tid 1's read finds tid 0's dirty copy — c2c downgrade, dirty
     data pushed down, served from the shared L3 (4+14+42 cycles); seq 4/5
     likewise hit the shared L3 after the peer's fill. *)
  let expected =
    "seq,tid,op,addr,level,cycles,victims,reason\n\
     0,0,R,0x0,MEM,260,-,cold\n\
     1,0,R,0x40,MEM,260,-,cold\n\
     2,0,W,0x0,L1,4,-,hit\n\
     3,1,R,0x0,L3,60,-,cold\n\
     4,1,W,0x40,L3,60,-,cold\n\
     5,0,R,0x40,L3,60,-,cold\n"
  in
  Alcotest.(check string) "golden CSV" expected csv

let test_replayer_bad_geometry () =
  let bad =
    { small_config with Replayer.line_bytes = 48 (* not a power of two *) }
  in
  (match Replayer.create bad with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-pow2 line_bytes accepted");
  let bad =
    {
      small_config with
      Replayer.l1 =
        { Replayer.lines = 12; assoc = 3; latency = 1;
          policy = Mcsim.Policy.Tree_plru };
    }
  in
  match Replayer.create bad with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-pow2 Tree-PLRU associativity accepted"

(* ------------------------- sharded replay -------------------------- *)

let with_policy p cores cfg =
  let lv (l : Replayer.level) = { l with Replayer.policy = p } in
  {
    cfg with
    Replayer.l1 = lv cfg.Replayer.l1;
    l2 = lv cfg.Replayer.l2;
    l3 = Option.map lv cfg.Replayer.l3;
    n_cores = cores;
  }

let all_policies =
  [
    Mcsim.Policy.Lru;
    Mcsim.Policy.Tree_plru;
    Mcsim.Policy.Qlru { h2 = 1; h3 = 1; m = 1; r = 0; u = 0 };
    Mcsim.Policy.Mru;
    Mcsim.Policy.Mru_n;
  ]

let run_sharded_csv ~jobs ~bits cfg source =
  let b = Buffer.create 4096 in
  Buffer.add_string b Report.csv_header;
  Buffer.add_char b '\n';
  let render buf ~seq ~tid ~write ~addr o =
    Report.append_csv_row buf ~seq ~tid ~write ~addr
      ~line_bytes:cfg.Replayer.line_bytes o
  in
  let s, diags =
    Replayer.run_sharded ~jobs ~bits ~render ~emit:(Buffer.add_string b) cfg
      source
  in
  (Buffer.contents b, s, diags)

(* [small_config] with twice the lines at every level: 8 / 8 / 16 sets,
   so it shards on up to 3 bits. *)
let shard_config =
  let lv (l : Replayer.level) = { l with Replayer.lines = 2 * l.Replayer.lines } in
  {
    small_config with
    Replayer.l1 = lv small_config.Replayer.l1;
    l2 = lv small_config.Replayer.l2;
    l3 = Option.map lv small_config.Replayer.l3;
  }

let test_shard_plan () =
  (* small_config: 4 / 4 / 8 sets, so at most 2 shared set-index bits *)
  (match Replayer.shard_plan small_config ~bits:8 with
  | Ok m -> Alcotest.(check int) "clamped to min level set bits" 2 m
  | Error d -> Alcotest.failf "unexpected: %s" d.Cacti_util.Diag.reason);
  (match Replayer.shard_plan small_config ~bits:1 with
  | Ok m -> Alcotest.(check int) "request honoured" 1 m
  | Error _ -> Alcotest.fail "bits:1 rejected");
  (match Replayer.shard_plan small_config ~bits:0 with
  | Ok m -> Alcotest.(check int) "0 bits is serial" 0 m
  | Error _ -> Alcotest.fail "bits:0 rejected");
  let check_unsupported name cfg =
    match Replayer.shard_plan cfg ~bits:2 with
    | Ok _ -> Alcotest.failf "%s: accepted" name
    | Error d ->
        Alcotest.(check string) (name ^ " reason") "shard_unsupported"
          d.Cacti_util.Diag.reason;
        Alcotest.(check bool) (name ^ " is a warning") true
          (d.Cacti_util.Diag.severity = Cacti_util.Diag.Warning)
  in
  check_unsupported "non-pow2 line_bytes"
    { small_config with Replayer.line_bytes = 48 };
  (* 12 lines of 4 ways ask for 3 sets: Cache_sim builds 2 sets of 6
     ways, so the L2 as built allows 1 bit. *)
  match
    Replayer.shard_plan
      {
        small_config with
        Replayer.l2 =
          { Replayer.lines = 12; assoc = 4; latency = 14;
            policy = Mcsim.Policy.Lru };
      }
      ~bits:8
  with
  | Ok m -> Alcotest.(check int) "non-pow2 set count: built set bits" 1 m
  | Error d -> Alcotest.failf "non-pow2 set count: %s" d.Cacti_util.Diag.reason

(* A level whose requested set count [lines / assoc] is not a power of
   two is built with the count rounded down (ways widened), so its set
   index is still the line's low bits: the summary-only replay shards,
   with no warning, and equals the serial summary for every policy whose
   widened ways it accepts, every core count and 1 to 3 shard bits. *)
let test_rounded_sets_shard () =
  let lv lines assoc latency =
    { Replayer.lines; assoc; latency; policy = Mcsim.Policy.Lru }
  in
  let geometries =
    [
      (* L1 6 -> 4 sets of 3 ways; L2 12 -> 8 sets of 6; L3 10 -> 8 of 5 *)
      ("odd L1/L2/L3", lv 12 2 4, lv 48 4 14, Some (lv 40 4 42));
      ("odd L2", lv 8 2 4, lv 24 4 14, Some (lv 32 4 42));
      ("odd L1, no L3", lv 20 2 4, lv 64 4 14, None);
    ]
  in
  let recs = synthetic_records 2_000 in
  let source = Trace_io.of_records recs in
  List.iter
    (fun (gname, l1, l2, l3) ->
      List.iter
        (fun p ->
          List.iter
            (fun cores ->
              let cfg =
                with_policy p cores { small_config with Replayer.l1; l2; l3 }
              in
              let _, serial_sum = replay_csv cfg recs in
              List.iter
                (fun bits ->
                  let name =
                    Printf.sprintf "%s %s/%d-core bits %d" gname
                      (Mcsim.Policy.to_string p) cores bits
                  in
                  let sum, diags =
                    Replayer.run_sharded ~jobs:4 ~bits cfg source
                  in
                  Alcotest.(check (list string)) (name ^ " no warning") []
                    (List.map (fun d -> d.Cacti_util.Diag.reason) diags);
                  Alcotest.(check bool) (name ^ " summary") true
                    (sum = serial_sum))
                [ 1; 2; 3 ])
            [ 1; 2; 4 ])
        (* Tree-PLRU needs power-of-two ways, which widening breaks *)
        (List.filter (fun p -> p <> Mcsim.Policy.Tree_plru) all_policies))
    geometries

(* The same records from each origin of a source: a text file, a binary
   file and [of_records]. *)
let sources_of recs =
  [
    ("text", Trace_io.load_source (write_trace Trace_io.Text recs));
    ("binary", Trace_io.load_source (write_binary_trace recs));
    ("of_records", Trace_io.of_records recs);
  ]

(* A summary-only sharded replay equals the serial summary for every
   policy kind, core count and 1 to 3 shard bits, from every origin of a
   source; a rendered replay asked for 4 jobs and 2 bits returns the
   serial CSV bytes. *)
let test_sharded_all_policies () =
  let recs = synthetic_records 3_000 in
  let sources = sources_of recs in
  List.iter
    (fun p ->
      List.iter
        (fun cores ->
          let cfg = with_policy p cores shard_config in
          let name =
            Printf.sprintf "%s/%d-core" (Mcsim.Policy.to_string p) cores
          in
          let serial_csv, serial_sum = replay_csv cfg recs in
          List.iter
            (fun (origin, source) ->
              let name = name ^ " " ^ origin in
              List.iter
                (fun bits ->
                  let sum, _ = Replayer.run_sharded ~jobs:4 ~bits cfg source in
                  Alcotest.(check bool)
                    (Printf.sprintf "%s bits %d summary" name bits)
                    true (sum = serial_sum))
                [ 1; 2; 3 ];
              let csv, sum, _ = run_sharded_csv ~jobs:4 ~bits:2 cfg source in
              Alcotest.(check bool) (name ^ " rendered summary") true
                (sum = serial_sum);
              Alcotest.(check string) (name ^ " stream") serial_csv csv)
            sources)
        [ 1; 2; 4 ])
    all_policies

let prop_sharded_identity =
  let gen =
    QCheck.(
      triple (int_range 0 4) (int_range 0 2)
        (list_of_size (Gen.int_range 0 200)
           (triple (int_range 0 7) bool (int_range 0 0xFFFFF))))
  in
  QCheck.Test.make
    ~name:"sharded replay = serial (jobs x bits x policy x cores)" ~count:12
    gen
    (fun (pidx, cidx, recs) ->
      let p = List.nth all_policies pidx in
      let cores = [| 1; 2; 4 |].(cidx) in
      let cfg = with_policy p cores shard_config in
      let recs = Array.of_list recs in
      let _, serial_sum = replay_csv cfg recs in
      let source = Trace_io.of_records recs in
      List.for_all
        (fun jobs ->
          List.for_all
            (fun bits -> fst (Replayer.run_sharded ~jobs ~bits cfg source) = serial_sum)
            [ 0; 1; 2; 3 ])
        [ 1; 2; 4 ])

(* A binary trace cut into chunks of the given sizes, written byte by
   byte: the writer always uses 65,536-record chunks, other writers may
   not. *)
let write_chunked_trace recs sizes =
  let path = tmp_file ".crtb" in
  let oc = open_out_bin path in
  let u32 v =
    let b = Bytes.create 4 in
    Bytes.set_int32_le b 0 (Int32.of_int v);
    output_bytes oc b
  in
  output_string oc "CACTIRPB";
  u32 1;
  let next = ref 0 in
  List.iter
    (fun k ->
      u32 k;
      for i = !next to !next + k - 1 do
        let tid, write, addr = recs.(i) in
        let b = Bytes.create 11 in
        Bytes.set_uint8 b 0 (Bool.to_int write);
        Bytes.set_uint16_le b 1 tid;
        Bytes.set_int64_le b 3 (Int64.of_int addr);
        output_bytes oc b
      done;
      next := !next + k)
    sizes;
  u32 0;
  close_out oc;
  path

(* Whatever the chunk sizes of a binary file, and from a text file's
   image (grown while it was parsed), [iter_source] yields the records,
   and a summary-only replay sharded on 1 to 3 bits, each shard
   streaming the file, equals the serial summary. *)
let test_uneven_chunks () =
  let sizes = [ 1; 2; 3; 65_536; 70_000 ] in
  let n = List.fold_left ( + ) 0 sizes in
  let recs = synthetic_records n in
  let cfg = with_policy Mcsim.Policy.Tree_plru 2 shard_config in
  let _, serial_sum = replay_csv cfg recs in
  let chunked sizes =
    ( String.concat "," (List.map string_of_int sizes),
      Trace_io.load_source (write_chunked_trace recs sizes) )
  in
  List.iter
    (fun (layout, src) ->
      Alcotest.(check int) (layout ^ " length") n (Trace_io.source_length src);
      let tids = Array.make n 0 and writes = Array.make n false in
      let addrs = Array.make n 0 and k = ref 0 in
      Trace_io.iter_source src ~f:(fun ~tid ~write ~addr ->
          tids.(!k) <- tid;
          writes.(!k) <- write;
          addrs.(!k) <- addr;
          incr k);
      Alcotest.(check bool) (layout ^ " iter_source = records") true
        (Array.init n (fun i -> (tids.(i), writes.(i), addrs.(i))) = recs);
      for bits = 1 to 3 do
        let sum, diags = Replayer.run_sharded ~jobs:2 ~bits cfg src in
        Alcotest.(check int)
          (Printf.sprintf "%s bits %d diagnostics" layout bits)
          0 (List.length diags);
        Alcotest.(check bool)
          (Printf.sprintf "%s bits %d summary" layout bits)
          true (sum = serial_sum)
      done)
    [
      chunked sizes;
      chunked (List.rev sizes);
      chunked [ 70_000; 3; 65_536; 1; 2 ];
      ("text", Trace_io.load_source (write_trace Trace_io.Text recs));
    ]

(* A binary trace that changes after [load_source] is refused with a
   [Parse_error] by every pass over it, serial or sharded, and by
   [run_configs] ([llc_study --replay]): cut to 4 KiB (a pass used to
   read a mapping past the end of the file and die of SIGBUS), grown to
   twice its records, or shrunk to half of them. *)
let test_changed_after_load () =
  let recs = synthetic_records 20_000 in
  let cfg = with_policy Mcsim.Policy.Tree_plru 2 small_config in
  let contents recs =
    In_channel.with_open_bin (write_binary_trace recs) In_channel.input_all
  in
  let full = contents recs in
  List.iter
    (fun (change, bytes) ->
      let path = write_binary_trace recs in
      let src = Trace_io.load_source path in
      Out_channel.with_open_bin path (fun oc -> output_string oc bytes);
      List.iter
        (fun (pass, run) ->
          match run src with
          | exception Trace_io.Parse_error { path = p; _ } ->
              Alcotest.(check string) (change ^ ": " ^ pass ^ " path") path p
          | () -> Alcotest.failf "%s: %s passed" change pass)
        [
          ( "iter_source",
            fun src ->
              Trace_io.iter_source src ~f:(fun ~tid:_ ~write:_ ~addr:_ -> ())
          );
          ( "run_sharded jobs 1",
            fun src -> ignore (Replayer.run_sharded ~jobs:1 cfg src) );
          ( "run_sharded 4 shards",
            fun src -> ignore (Replayer.run_sharded ~jobs:2 ~bits:2 cfg src) );
          ( "run_configs jobs 2",
            fun src -> ignore (Replayer.run_configs ~jobs:2 [| cfg; cfg |] src)
          );
          ("thread_gens", fun src -> ignore (Trace_io.thread_gens src));
        ])
    [
      ("cut to 4 KiB", String.sub full 0 4096);
      ("grown", contents (Array.append recs recs));
      ("shrunk", contents (Array.sub recs 0 10_000));
    ]

(* Replays hand their caches back to the domain's free list, and the next
   replay's caches are built from those stale arrays.  On one domain,
   configs A (skl, 4 cores), B (all LRU, 1 core) and C (nhm with its MRU
   L3, 2 cores), each of its own geometry, run in the order A, B, C, A,
   C, serially with CSV rendering and in two summary-only shards: every
   repeat equals its first run, summary and CSV bytes. *)
let test_recycled_replay_caches () =
  let preset name cfg =
    match Mcsim.Policy.preset_of_string name with
    | Ok p -> Replayer.with_preset p cfg
    | Error d -> Alcotest.fail d.Cacti_util.Diag.message
  in
  let lv lines assoc latency =
    { Replayer.lines; assoc; latency; policy = Mcsim.Policy.Lru }
  in
  let geometry l1 l2 l3 n_cores =
    { small_config with Replayer.l1; l2; l3 = Some l3; n_cores }
  in
  let a = preset "skl" (geometry (lv 64 8 4) (lv 256 8 12) (lv 512 8 40) 4)
  and b = geometry (lv 32 4 3) (lv 128 4 10) (lv 1024 16 30) 1
  and c = preset "nhm" (geometry (lv 32 8 4) (lv 512 8 12) (lv 256 16 40) 2) in
  let src = Trace_io.of_records (synthetic_records 20_000) in
  List.iter
    (fun (mode, bits) ->
      let run cfg =
        let csv, s, diags =
          if bits = 0 then run_sharded_csv ~jobs:1 ~bits cfg src
          else
            let s, diags = Replayer.run_sharded ~jobs:1 ~bits cfg src in
            ("", s, diags)
        in
        Alcotest.(check int) (mode ^ " diagnostics") 0 (List.length diags);
        (csv, s)
      in
      let first_a = run a in
      ignore (run b);
      let first_c = run c in
      let check name (csv, s) (csv', s') =
        Alcotest.(check bool) (mode ^ ": " ^ name ^ " summary") true (s = s');
        Alcotest.(check bool)
          (mode ^ ": " ^ name ^ " CSV")
          true (String.equal csv csv')
      in
      check "A again" first_a (run a);
      check "C again" first_c (run c))
    [ ("serial", 0); ("2 shards", 1) ]

(* A summary-only sharded replay holds nothing per record: 4 shards on
   the calling domain allocate the same words (minor, plus major less
   promoted) over a binary trace of 200k records as over one of 50k,
   within 256 words.  Each shard's stream allocates its block buffer and
   a few words per chunk. *)
let test_sharded_no_alloc () =
  let cfg = with_policy Mcsim.Policy.Tree_plru 2 shard_config in
  let words n =
    let src = Trace_io.load_source (write_binary_trace (synthetic_records n)) in
    (* the first replay on the domain fills its cache free list *)
    ignore (Replayer.run_sharded ~jobs:1 ~bits:2 cfg src);
    let minor0, promoted0, major0 = Gc.counters () in
    let s, diags = Replayer.run_sharded ~jobs:1 ~bits:2 cfg src in
    let minor1, promoted1, major1 = Gc.counters () in
    Alcotest.(check int) (Printf.sprintf "%d accesses" n) n s.Replayer.accesses;
    Alcotest.(check int) "diagnostics" 0 (List.length diags);
    minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0)
  in
  let w1 = words 50_000 and w2 = words 200_000 in
  if Float.abs (w2 -. w1) > 256. then
    Alcotest.failf "%.0f words over 50k records, %.0f over 200k" w1 w2

(* [of_machine]: the machine's geometry, LRU at every level. *)
let test_of_machine () =
  let cfg = Replayer.of_machine test_machine in
  let lru (lv : Replayer.level) = lv.Replayer.policy = Mcsim.Policy.Lru in
  Alcotest.(check (list int)) "L1, L2 lines / assoc / latency"
    [ 128; 4; 2; 1024; 8; 5 ]
    [
      cfg.Replayer.l1.lines; cfg.l1.assoc; cfg.l1.latency; cfg.l2.lines;
      cfg.l2.assoc; cfg.l2.latency;
    ];
  (match cfg.Replayer.l3 with
  | Some l3 ->
      Alcotest.(check (list int)) "L3 over both banks, + crossbar"
        [ 8192; 8; 9 ] [ l3.lines; l3.assoc; l3.latency ];
      Alcotest.(check bool) "L3 LRU" true (lru l3)
  | None -> Alcotest.fail "no L3");
  Alcotest.(check bool) "L1, L2 LRU" true (lru cfg.l1 && lru cfg.l2);
  Alcotest.(check (list int)) "memory latency, line, cores" [ 75; 64; 2 ]
    [ cfg.mem_latency; cfg.line_bytes; cfg.n_cores ]

(* [run_configs] returns what [run_sharded] returns for each config
   alone, for any [jobs], and surfaces the planner's warning. *)
let test_run_configs () =
  let machine = Replayer.of_machine test_machine in
  let skl =
    match Mcsim.Policy.preset_of_string "skl" with
    | Ok p -> Replayer.with_preset p machine
    | Error d -> Alcotest.fail d.Cacti_util.Diag.message
  in
  (* 24 lines of 4 ways: built as 4 sets of 6 ways, so it shards *)
  let odd_sets =
    {
      small_config with
      Replayer.l2 =
        { Replayer.lines = 24; assoc = 4; latency = 14;
          policy = Mcsim.Policy.Lru };
    }
  in
  let src = Trace_io.of_records (synthetic_records 4_000) in
  let serial cfgs =
    Array.map (fun cfg -> fst (Replayer.run_sharded ~jobs:1 cfg src)) cfgs
  in
  let check name cfgs ~warns =
    let expected = serial cfgs in
    List.iter
      (fun jobs ->
        let name = Printf.sprintf "%s jobs %d" name jobs in
        let sums, diags = Replayer.run_configs ~jobs cfgs src in
        Alcotest.(check bool) (name ^ " summaries") true (sums = expected);
        (* replay domains are capped at the host's count *)
        let domains = Int.min jobs (Domain.recommended_domain_count ()) in
        Alcotest.(check (list string)) (name ^ " diagnostics")
          (if warns && domains > 1 then [ "shard_unsupported" ] else [])
          (List.map (fun d -> d.Cacti_util.Diag.reason) diags))
      [ 1; 2; 4; 8 ]
  in
  check "shardable" [| machine; skl; small_config |] ~warns:false;
  check "rounded set count" [| machine; odd_sets; skl |] ~warns:false;
  check "mixed line sizes"
    [| machine; { machine with Replayer.line_bytes = 128 } |]
    ~warns:true;
  Alcotest.(check int) "no configs" 0
    (Array.length (fst (Replayer.run_configs ~jobs:4 [||] src)))

(* ----------------------- trace-driven engine ----------------------- *)

let gens_of source =
  match Trace_io.thread_gens source with
  | Ok make_gen -> make_gen
  | Error d -> Alcotest.fail (Cacti_util.Diag.render [ d ])

(* Engine thread [i] replays the records of the [(i mod D)]-th smallest of
   the trace's [D] thread ids, in trace order, as 64-byte lines, and wraps
   at the end; every call starts a fresh cursor. *)
let prop_thread_gens =
  let gen =
    QCheck.(
      pair (int_range 1 12)
        (list_of_size (Gen.int_range 1 60)
           (triple
              (oneofl [ 0; 1; 5; 6; 300; Trace_io.max_tid ])
              bool
              (map (fun a -> a land Trace_io.max_addr) int))))
  in
  QCheck.Test.make ~name:"engine thread i replays the (i mod D)-th tid"
    ~count:200 gen (fun (n_threads, recs) ->
      let recs = Array.of_list recs in
      let tids =
        Array.of_list
          (List.sort_uniq compare
             (Array.to_list (Array.map (fun (t, _, _) -> t) recs)))
      in
      let make_gen = gens_of (Trace_io.of_records recs) in
      List.for_all
        (fun i ->
          let tid = tids.(i mod Array.length tids) in
          let expected =
            Array.of_list
              (List.filter_map
                 (fun (t, write, addr) ->
                   if t = tid then Some (addr / 64, write) else None)
                 (Array.to_list recs))
          in
          let n = Array.length expected in
          let g = make_gen ~thread_id:i in
          (* two laps and a few more: the wrap *)
          List.for_all
            (fun k -> Mcsim.Workload.next g = expected.(k mod n))
            (List.init ((2 * n) + 3) Fun.id))
        (List.init n_threads Fun.id))

(* A trace with no records drives nothing: a typed error from every
   origin, never a division by zero or an empty generator. *)
let test_empty_trace () =
  let empty = tmp_file ".trc" in
  write_file empty "# no records\n";
  List.iter
    (fun (origin, source) ->
      match Trace_io.thread_gens source with
      | Ok _ -> Alcotest.failf "%s: empty trace accepted" origin
      | Error d ->
          Alcotest.(check string) (origin ^ " reason") "empty_trace"
            d.Cacti_util.Diag.reason;
          Alcotest.(check bool) (origin ^ " is an error") true
            (d.Cacti_util.Diag.severity = Cacti_util.Diag.Error))
    [
      ("of_records", Trace_io.of_records [||]);
      ("text", Trace_io.load_source empty);
      ("binary", Trace_io.load_source (write_binary_trace [||]));
    ];
  match Mcsim.Workload.replay [||] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "Workload.replay accepted an empty array"

(* A replayed reference is an array read, so the trace-driven engine
   allocates per instruction no more than the synthetic one (about 0
   minor words).  The marginal words of 200k more instructions exclude
   each run's set-up. *)
let test_trace_engine_alloc () =
  let app = Mcsim.Apps.lu_c in
  let n_threads = Mcsim.Machine.n_threads test_machine in
  let recs =
    Array.concat
      (List.init n_threads (fun thread_id ->
           let g = Mcsim.Workload.gen app ~n_threads ~thread_id ~seed:3L in
           Array.init 20_000 (fun _ ->
               let line, write = Mcsim.Workload.next g in
               (thread_id, write, line * 64))))
  in
  let make_gen = gens_of (Trace_io.of_records recs) in
  let words ?make_gen n =
    let params =
      { Mcsim.Engine.default_params with total_instructions = n }
    in
    let w0 = Gc.minor_words () in
    ignore (Mcsim.Engine.run ~params ?make_gen test_machine app);
    Gc.minor_words () -. w0
  in
  let per_instr ?make_gen () =
    (words ?make_gen 400_000 -. words ?make_gen 200_000) /. 200_000.
  in
  let synthetic = per_instr () and traced = per_instr ~make_gen () in
  Alcotest.(check bool)
    (Printf.sprintf "synthetic %.4f minor words/instr <= 0.01" synthetic)
    true (synthetic <= 0.01);
  Alcotest.(check bool)
    (Printf.sprintf "trace-driven %.4f minor words/instr <= 0.01" traced)
    true (traced <= 0.01)

(* Every thread's first quota of references, recorded from the live
   generators (seed 11) as a trace with thread id = engine thread and
   addr = line * 64, and replayed through [thread_gens] with the same app
   and seed, reproduces the live cell exactly: the engine's own draws
   (gaps, locks) are unchanged and only the source of the references
   differs.  8 apps x 2 machines x 3 origins at 200k instructions: about
   2.3 s on a 2-vCPU host in the dev profile. *)
let test_recorded_trace_equals_live () =
  let params =
    { Mcsim.Engine.default_params with total_instructions = 200_000;
      seed = 11L }
  in
  let kinds = [ Mcsim.Study.No_l3; Mcsim.Study.Sram_l3 ] in
  let n_threads =
    Mcsim.Machine.n_threads (Mcsim.Study.build Mcsim.Study.No_l3).machine
  in
  let quota = params.total_instructions / n_threads in
  List.iter
    (fun (app : Mcsim.Workload.app) ->
      let gens =
        Array.init n_threads (fun thread_id ->
            Mcsim.Workload.gen app ~n_threads ~thread_id ~seed:params.seed)
      in
      (* interleaved, as a capture of concurrent threads would be *)
      let recs = Array.make (quota * n_threads) (0, false, 0) in
      for k = 0 to quota - 1 do
        Array.iteri
          (fun tid g ->
            let line, write = Mcsim.Workload.next g in
            recs.((k * n_threads) + tid) <- (tid, write, line * 64))
          gens
      done;
      let live = Mcsim.Study.run_all ~params ~kinds ~apps:[ app ] () in
      List.iter
        (fun (origin, source) ->
          let replayed, diags =
            Mcsim.Study.run_all_diag ~params ~make_gen:(gens_of source) ~kinds
              ~apps:[ app ] ()
          in
          Alcotest.(check int) "no failed cells" 0 (List.length diags);
          List.iter2
            (fun (l : Mcsim.Study.app_result) (r : Mcsim.Study.app_result) ->
              let name =
                Printf.sprintf "%s on %s from %s" app.name
                  (Mcsim.Study.kind_name r.config.kind) origin
              in
              Alcotest.(check bool) (name ^ ": Stats.t") true
                (compare l.stats r.stats = 0);
              Alcotest.(check bool) (name ^ ": Energy.system") true
                (compare l.sys r.sys = 0))
            live replayed)
        [
          ("text", Trace_io.load_source (write_trace Trace_io.Text recs));
          ("binary", Trace_io.load_source (write_binary_trace recs));
          ("of_records", Trace_io.of_records recs);
        ])
    Mcsim.Apps.all

(* --------------------------- row encoding -------------------------- *)

(* Every int a row field can hold: 0, the digit-count boundaries of
   [%d] and [%x], negatives, [min_int] and [max_int], plus uniform draws
   over the whole range. *)
let gen_any_int =
  let boundaries =
    let around x = [ x - 1; x; x + 1 ] in
    let rec pows base x =
      if x > max_int / base then [ x ] else x :: pows base (x * base)
    in
    let pos =
      0 :: 1 :: max_int :: List.concat_map around (pows 10 10 @ pows 16 16)
    in
    min_int :: pos @ List.map (fun x -> -x) pos
  in
  QCheck.Gen.(
    frequency
      [ (2, oneofl boundaries); (2, int); (1, small_signed_int) ])

let gen_outcome =
  QCheck.Gen.(
    let* level = int_range 0 3 in
    let* cycles = gen_any_int in
    (* which of L1/L2/L3 carry a victim: all 8 subsets, so half the rows
       have two or three *)
    let* mask = int_range 0 7 in
    (* any non-negative packed value: both state bits vary, so clean and
       dirty victims both occur *)
    let victim bit =
      if mask land bit = 0 then return (-1)
      else map (fun n -> n land max_int) gen_any_int
    in
    let* l1_victim = victim 1 in
    let* l2_victim = victim 2 in
    let* l3_victim = victim 4 in
    return
      {
        Replayer.level; cycles; l1_victim; l2_victim; l3_victim;
        writebacks = 0; invalidations = 0; c2c = false;
      })

type row = {
  seq : int;
  tid : int;
  write : bool;
  addr : int;
  line_bytes : int;
  o : Replayer.outcome;
}

let gen_row =
  QCheck.Gen.(
    let* seq = gen_any_int in
    let* tid = gen_any_int in
    let* write = bool in
    let* addr = gen_any_int in
    let* line_bytes = oneofl [ 32; 64; 128 ] in
    let* o = gen_outcome in
    return { seq; tid; write; addr; line_bytes; o })

let print_row r =
  Printf.sprintf
    "seq=%d tid=%d write=%b addr=%d line_bytes=%d level=%d cycles=%d \
     victims=%d,%d,%d"
    r.seq r.tid r.write r.addr r.line_bytes r.o.Replayer.level
    r.o.Replayer.cycles r.o.Replayer.l1_victim r.o.Replayer.l2_victim
    r.o.Replayer.l3_victim

let render_rows append rows =
  let b = Buffer.create 1024 in
  List.iter
    (fun r ->
      append b ~seq:r.seq ~tid:r.tid ~write:r.write ~addr:r.addr
        ~line_bytes:r.line_bytes r.o)
    rows;
  Buffer.contents b

(* The allocation-free encoder writes exactly the bytes of the Printf
   renderers it replaced, row after row into one buffer. *)
let prop_rows_match_oracle =
  QCheck.Test.make ~name:"CSV/JSONL rows = Printf oracle" ~count:2000
    (QCheck.make
       ~print:(fun rows -> String.concat "\n" (List.map print_row rows))
       QCheck.Gen.(list_size (int_range 1 4) gen_row))
    (fun rows ->
      String.equal
        (render_rows Report.append_csv_row rows)
        (render_rows Oracle.Report_printf.append_csv_row rows)
      && String.equal
           (render_rows Report.append_jsonl_row rows)
           (render_rows Oracle.Report_printf.append_jsonl_row rows))

(* The renderers as the replay binaries build them: fully applied. *)
let csv_64 : Replayer.render =
 fun b ~seq ~tid ~write ~addr o ->
  Report.append_csv_row b ~seq ~tid ~write ~addr ~line_bytes:64 o

let jsonl_64 : Replayer.render =
 fun b ~seq ~tid ~write ~addr o ->
  Report.append_jsonl_row b ~seq ~tid ~write ~addr ~line_bytes:64 o

let minor_words_during f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

(* 10k mixed rows -- hits, cold misses, and evictions with one to three
   clean or dirty victims -- rendered into a pre-sized buffer must leave
   the minor heap untouched. *)
let test_render_no_alloc () =
  let n = 10_000 in
  let outcomes =
    Array.init n (fun i ->
        let level = i mod 4 in
        let victims = if level = 0 then 0 else i / 4 mod 4 in
        let v k =
          if k < victims then ((i * 7919) + k) lsl 2 lor (1 + (i land 2))
          else -1
        in
        {
          Replayer.level; cycles = 4 + (60 * level); l1_victim = v 0;
          l2_victim = v 1; l3_victim = v 2; writebacks = 0;
          invalidations = 0; c2c = false;
        })
  in
  let check name (append : Replayer.render) =
    let b = Buffer.create (n * 400) in
    let rows () =
      for i = 0 to n - 1 do
        append b ~seq:i ~tid:(i land 3) ~write:(i land 1 = 1)
          ~addr:(0x7f0000000000 + (i * 64)) outcomes.(i)
      done
    in
    (* the first row on a domain creates its scratch space *)
    rows ();
    Buffer.clear b;
    let words = minor_words_during rows -. minor_words_during ignore in
    Alcotest.(check (float 0.)) (name ^ " minor words per row") 0.
      (words /. float_of_int n)
  in
  check "CSV" csv_64;
  check "JSONL" jsonl_64

(* Canonical text lines -- hex and decimal addresses, with and without a
   tid, CRLF, tabs and trailing comments -- stream through [iter_channel]
   with no minor allocation per record: 20k lines cost exactly the minor
   words of 10k, so only the per-call set-up allocates. *)
let test_text_no_alloc () =
  let lines n =
    let b = Buffer.create (n * 32) in
    for i = 0 to n - 1 do
      let addr = 0x7f0000000000 + (i * 64) in
      match i mod 4 with
      | 0 -> Printf.bprintf b "R 0x%x %d\n" addr (i land 3)
      | 1 -> Printf.bprintf b "w\t0X%X\r\n" addr
      | 2 -> Printf.bprintf b "W %d 65535 # store\n" addr
      | _ -> Printf.bprintf b "r %d\n" i
    done;
    Buffer.contents b
  in
  let sum = ref 0 in
  let f ~tid ~write ~addr = sum := !sum + tid + addr + Bool.to_int write in
  let words n =
    let path = tmp_file ".trc" in
    write_file path (lines n);
    In_channel.with_open_bin path (fun ic ->
        minor_words_during (fun () ->
            Alcotest.(check int) "records" n
              (Trace_io.iter_channel ~path Trace_io.Text ic ~f)))
  in
  let n = 10_000 in
  let w1 = words n in
  let w2 = words (2 * n) in
  Alcotest.(check (float 0.)) "minor words per canonical record" 0.
    ((w2 -. w1) /. float_of_int n)

(* The checked-in smoke trace through the skl preset on 2 cores must
   reproduce both golden files byte for byte: serially, sharded, and
   streamed from a channel as [cacti_replay run --trace -] does. *)
let test_smoke_goldens () =
  let trace = "data/replay_smoke.trc" in
  let cfg =
    match Mcsim.Policy.preset_of_string "skl" with
    | Ok p ->
        Replayer.with_preset p { Replayer.default_config with n_cores = 2 }
    | Error d -> Alcotest.fail d.Cacti_util.Diag.message
  in
  let source = Trace_io.load_source trace in
  let check_format name ~header golden (append : Replayer.render) =
    let expected = In_channel.with_open_bin golden In_channel.input_all in
    let replay name run =
      let b = Buffer.create 65536 in
      Buffer.add_string b header;
      run ~render:append ~emit:(Buffer.add_string b);
      Alcotest.(check string) name expected (Buffer.contents b)
    in
    let sharded ?bits jobs ~render ~emit =
      let _, diags =
        Replayer.run_sharded ~jobs ?bits ~render ~emit cfg source
      in
      Alcotest.(check int) (name ^ " diagnostics") 0 (List.length diags)
    in
    replay (name ^ " jobs 1") (sharded 1);
    replay (name ^ " jobs 2 bits 1") (sharded ~bits:1 2);
    replay (name ^ " streamed") (fun ~render ~emit ->
        ignore
          (Replayer.run_serial ~render ~emit cfg (fun ~f ->
               ignore (Trace_io.iter_file trace ~f : int))
            : Replayer.summary))
  in
  check_format "CSV" ~header:(Report.csv_header ^ "\n")
    "data/replay_smoke.golden.csv" csv_64;
  check_format "JSONL" ~header:"" "data/replay_smoke.golden.jsonl" jsonl_64

let () =
  Alcotest.run "replay"
    [
      ( "policy",
        [
          Alcotest.test_case "parse" `Quick test_policy_parse;
          Alcotest.test_case "reject unknown names" `Quick test_policy_reject;
          Alcotest.test_case "CPU preset table" `Quick test_presets;
          QCheck_alcotest.to_alcotest prop_qlru_roundtrip;
        ] );
      ( "golden sequences",
        [
          Alcotest.test_case "LRU" `Quick test_golden_lru;
          Alcotest.test_case "Tree-PLRU" `Quick test_golden_tree_plru;
          Alcotest.test_case "QLRU_H11_M1_R0_U0" `Quick test_golden_qlru_r0_u0;
          Alcotest.test_case "QLRU_H00_M1_R0_U1" `Quick test_golden_qlru_r0_u1;
          Alcotest.test_case "QLRU_H11_M1_R1_U2" `Quick test_golden_qlru_r1_u2;
          Alcotest.test_case "MRU" `Quick test_golden_mru;
          Alcotest.test_case "MRU_N fallback" `Quick test_golden_mru_n;
        ] );
      ( "trace io",
        [
          Alcotest.test_case "text parse" `Quick test_text_parse;
          Alcotest.test_case "text malformed" `Quick test_text_malformed;
          QCheck_alcotest.to_alcotest prop_text_scanner_random;
          QCheck_alcotest.to_alcotest prop_text_scanner_blocks;
          Alcotest.test_case "text scan allocates nothing" `Quick
            test_text_no_alloc;
          Alcotest.test_case "binary malformed" `Quick test_binary_malformed;
          Alcotest.test_case "format detection" `Quick test_detect;
          Alcotest.test_case "mapped parity (multi-chunk)" `Quick
            test_map_binary;
          Alcotest.test_case "mapped malformed" `Quick test_map_malformed;
          QCheck_alcotest.to_alcotest prop_binary_decoders;
          Alcotest.test_case "convert missing output dir" `Quick
            test_convert_output_dir;
          QCheck_alcotest.to_alcotest
            (prop_writer_roundtrip Trace_io.Text "text writer roundtrips");
          QCheck_alcotest.to_alcotest
            (prop_writer_roundtrip Trace_io.Binary "binary writer roundtrips");
          QCheck_alcotest.to_alcotest prop_convert_roundtrip;
          QCheck_alcotest.to_alcotest prop_records_roundtrip;
        ] );
      ( "replayer",
        [
          Alcotest.test_case "levels and cycles" `Quick test_replayer_basics;
          Alcotest.test_case "coherence" `Quick test_replayer_coherence;
          Alcotest.test_case "deterministic output" `Quick
            test_replay_deterministic;
          Alcotest.test_case "golden per-access stream" `Quick
            test_replay_golden;
          Alcotest.test_case "bad geometry rejected" `Quick
            test_replayer_bad_geometry;
        ] );
      ( "sharded replay",
        [
          Alcotest.test_case "shard plan" `Quick test_shard_plan;
          Alcotest.test_case "rounded set counts shard" `Quick
            test_rounded_sets_shard;
          Alcotest.test_case "all policies, all core counts" `Quick
            test_sharded_all_policies;
          Alcotest.test_case "uneven chunk tables" `Quick test_uneven_chunks;
          Alcotest.test_case "trace changed after load" `Quick
            test_changed_after_load;
          Alcotest.test_case "recycled caches do not leak" `Quick
            test_recycled_replay_caches;
          Alcotest.test_case "allocates nothing per record"
            `Quick test_sharded_no_alloc;
          Alcotest.test_case "of_machine geometry" `Quick test_of_machine;
          Alcotest.test_case "run_configs = run_sharded per config" `Quick
            test_run_configs;
          QCheck_alcotest.to_alcotest prop_sharded_identity;
        ] );
      ( "traced engine",
        [
          QCheck_alcotest.to_alcotest prop_thread_gens;
          Alcotest.test_case "empty trace is a typed error" `Quick
            test_empty_trace;
          Alcotest.test_case "minor words per instruction" `Quick
            test_trace_engine_alloc;
          Alcotest.test_case "recorded trace = live run" `Quick
            test_recorded_trace_equals_live;
        ] );
      ( "report",
        [
          QCheck_alcotest.to_alcotest prop_rows_match_oracle;
          Alcotest.test_case "rows allocate nothing" `Quick
            test_render_no_alloc;
          Alcotest.test_case "smoke trace goldens" `Quick test_smoke_goldens;
        ] );
    ]
