(* Tests of the benchmark's own helpers: the tail rule, generator
   determinism, failure accounting on corrupted outputs, VmHWM parsing, the
   pass-differencing split and span self times. *)

open Perfbench

let ctx () =
  {
    Ctx.seed = Check.default_seed;
    seconds = 0.;
    traced = false;
    bless = false;
    dir = Filename.get_temp_dir_name ();
    check = Check.create ~blessed:None;
    spans = Harness.Spans.create ();
  }

let fail_ratio (c : Check.t) = float_of_int c.failed /. float_of_int c.attempted

(* ---------------------------- tail rule ------------------------------ *)

let test_tail_percentile () =
  let p n = Harness.tail_percentile n in
  Alcotest.(check (option (float 0.))) "19 ops: none" None (p 19);
  Alcotest.(check (option (float 0.))) "20 ops: p50" (Some 50.) (p 20);
  Alcotest.(check (option (float 0.))) "39 ops: p50" (Some 50.) (p 39);
  Alcotest.(check (option (float 0.))) "40 ops: p75" (Some 75.) (p 40);
  Alcotest.(check (option (float 0.))) "99 ops: p75" (Some 75.) (p 99);
  Alcotest.(check (option (float 0.))) "100 ops: p90" (Some 90.) (p 100);
  Alcotest.(check (option (float 0.))) "999 ops: p90" (Some 90.) (p 999);
  Alcotest.(check (option (float 0.))) "1000 ops: p99" (Some 99.) (p 1000);
  Alcotest.(check (option (float 0.))) "9999 ops: p99" (Some 99.) (p 9_999);
  Alcotest.(check (option (float 0.))) "10000 ops: p99.9" (Some 99.9) (p 10_000);
  (* At every op count, the chosen percentile leaves at least 10 ops
     beyond its rank, and the next rung up would not. *)
  for n = 20 to 20_000 do
    match p n with
    | None -> Alcotest.fail "no tail"
    | Some q ->
        let beyond q = n - Harness.rank n q in
        if beyond q < 10 then Alcotest.failf "n=%d p%g leaves %d" n q (beyond q);
        List.iter
          (fun h -> if h > q && beyond h >= 10 then Alcotest.failf "n=%d: p%g qualifies" n h)
          Harness.ladder
  done

let test_tail_value () =
  let a = Array.init 100 (fun i -> float_of_int (100 - i)) in
  Alcotest.(check (option (pair (float 0.) (float 0.)))) "p90 of 1..100"
    (Some (90., 90.)) (Harness.tail a);
  Alcotest.(check (float 0.)) "median" 50.5 (Harness.median a)

(* ---------------------- generator determinism ----------------------- *)

let test_requests_deterministic () =
  let lines seed cycle =
    Array.map (Array.map (fun (r : Gen.request) -> r.line)) (Gen.solve_cycle ~seed ~cycle)
  in
  Alcotest.(check bool) "same seed" true (lines 7 0 = lines 7 0);
  Alcotest.(check bool) "other seed" false (lines 7 0 = lines 8 0);
  Alcotest.(check bool) "other cycle" false (lines 7 0 = lines 7 1);
  let passes = Gen.solve_cycle ~seed:7 ~cycle:0 in
  let firsts =
    Array.to_list passes
    |> List.concat_map (fun p -> List.filter (fun (r : Gen.request) -> r.first) (Array.to_list p))
  in
  Alcotest.(check int) "every spec first once per cycle" (Array.length Gen.all_specs)
    (List.length (List.sort_uniq compare (List.map (fun (r : Gen.request) -> r.spec) firsts)));
  Array.iter
    (fun pass ->
      Alcotest.(check int) "pass length" Gen.pass_length (Array.length pass);
      Array.iteri
        (fun i (r : Gen.request) ->
          Alcotest.(check bool) "every 8th is first" (i mod Gen.per_distinct = 0) r.first;
          match Cacti_util.Jsonx.parse r.line with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "%s: %s" r.line e)
        pass)
    passes

let test_traces_deterministic () =
  let file seed =
    let p = Filename.temp_file "perfbench" ".trc" in
    Gen.write_trace ~seed ~index:1 ~accesses:5_000 p;
    let s = Harness.read_file p in
    Sys.remove p;
    s
  in
  Alcotest.(check bool) "same seed, same bytes" true (file 3 = file 3);
  Alcotest.(check bool) "other seed" false (file 3 = file 4);
  Alcotest.(check bool) "engine seed" true
    (Gen.engine_seed ~seed:5 = Gen.engine_seed ~seed:5
    && Gen.engine_seed ~seed:5 <> Gen.engine_seed ~seed:6)

(* --------------------- corrupted outputs fail ------------------------ *)

let resp id sol = Printf.sprintf {|{"id":%d,"ok":true,"solution":%s,"timing":{"wall_ms":0.1,"cache_hits":2}}|} id sol

let req ~first ~key = { Gen.line = ""; spec = "cache {}"; first; kind = Gen.Cache; key }

let test_corrupted_solve () =
  let c = ctx () in
  let pc = W_solve.new_pass_check () in
  W_solve.check_response c pc (req ~first:true ~key:0) (resp 0 {|{"a":1.5}|});
  W_solve.check_response c pc (req ~first:false ~key:0) (resp 1 {|{"a":1.5}|});
  Alcotest.(check int) "good repeat" 0 c.check.failed;
  W_solve.check_response c pc (req ~first:false ~key:0) (resp 2 {|{"a":1.6}|});
  W_solve.check_response c pc (req ~first:true ~key:1)
    {|{"id":3,"ok":false,"diagnostics":[],"timing":{"wall_ms":0.1,"cache_hits":0}}|};
  Alcotest.(check int) "corrupted repeat and error response" 2 c.check.failed;
  Alcotest.(check bool) "fail_ratio > 0" true (fail_ratio c.check > 0.)

let test_blessed_mismatch () =
  let blessed = Hashtbl.create 1 in
  Hashtbl.replace blessed "k" "abc";
  let c = Check.create ~blessed:(Some blessed) in
  Alcotest.(check (option string)) "match" None (Check.digest c "k" "abc");
  Alcotest.(check bool) "mismatch" true (Check.digest c "k" "abd" <> None);
  Alcotest.(check bool) "missing" true (Check.digest c "other" "abc" <> None);
  let unseeded = Check.create ~blessed:None in
  Alcotest.(check (option string)) "other seeds skip digests" None
    (Check.digest unseeded "k" "zzz");
  Check.op c [];
  Check.op c [ "first"; "second" ];
  Alcotest.(check int) "an op fails at most once" 1 c.failed;
  Alcotest.(check int) "attempted" 2 c.attempted

let test_csv_check () =
  let rows =
    [ "0,0,R,0x40,L1,4,-,hit"; "1,1,W,0x80,MEM,260,L1:0x0:c,evict"; "2,0,R,0xc0,L2,18,-,cold" ]
  in
  let stream = String.concat "" (List.map (fun r -> r ^ "\n") rows) in
  let feed cuts =
    let c = W_replay.new_csv_check () in
    let pos = ref 0 in
    List.iter
      (fun n ->
        W_replay.csv_feed c (String.sub stream !pos n);
        pos := !pos + n)
      cuts;
    W_replay.csv_feed c (String.sub stream !pos (String.length stream - !pos));
    c
  in
  let c = feed [ 5; 17; 1 ] in
  Alcotest.(check int) "rows" 3 c.rows;
  Alcotest.(check (array int)) "levels" [| 1; 1; 0; 1 |] c.levels;
  Alcotest.(check int) "cycles" 282 c.cycles;
  Alcotest.(check string) "no carry" "" c.carry;
  Alcotest.(check bool) "digest independent of slab cuts" true
    (Harness.Stream_digest.finish c.digest
    = Harness.Stream_digest.finish (feed []).digest);
  let bad = W_replay.new_csv_check () in
  W_replay.csv_feed bad "0,0,R,0x40,L9,4,-,hit\n";
  Alcotest.(check bool) "corrupted level" true (bad.bad <> None);
  let skipped = W_replay.new_csv_check () in
  W_replay.csv_feed skipped "1,0,R,0x40,L1,4,-,hit\n";
  Alcotest.(check bool) "out-of-order seq" true (skipped.bad <> None)

(* ---------------------------- VmHWM --------------------------------- *)

let test_vmhwm () =
  let status =
    "Name:\tbench.exe\nVmPeak:\t  300000 kB\nVmHWM:\t   94208 kB\nVmRSS:\t   90000 kB\n"
  in
  Alcotest.(check (option (float 1e-9))) "kB to MB" (Some 92.) (Harness.parse_vmhwm status);
  Alcotest.(check (option (float 0.))) "missing" None (Harness.parse_vmhwm "VmRSS:\t1 kB\n");
  Alcotest.(check (option (float 0.))) "malformed" None (Harness.parse_vmhwm "VmHWM:\tlots kB\n");
  Alcotest.(check bool) "this process" true (Harness.peak_rss_mb () > 0.)

(* --------------------- pass differencing, spans ---------------------- *)

let test_diff_passes () =
  let passes = [| 1.; 3.; 6.; 10. |] in
  let d = Harness.diff_passes passes in
  Alcotest.(check (array (float 1e-12))) "layers" [| 1.; 2.; 3.; 4. |] d;
  Alcotest.(check (float 1e-12)) "telescopes to the last pass" 10.
    (Array.fold_left ( +. ) 0. d);
  Alcotest.(check (array (float 0.))) "one pass" [| 5. |] (Harness.diff_passes [| 5. |])

let test_span_self_times () =
  let t = Harness.Spans.create () in
  let spin () =
    let t0 = Harness.now_ns () in
    while Harness.now_ns () - t0 < 200_000 do () done
  in
  let v =
    Harness.Spans.with_span t "op" ~op:0 (fun () ->
        spin ();
        Harness.Spans.with_span t "a" ~op:0 spin;
        Harness.Spans.with_span t "b" ~op:0 (fun () ->
            spin ();
            Harness.Spans.with_span t "a" ~op:0 (fun () -> spin (); 42)))
  in
  Alcotest.(check int) "value" 42 v;
  Alcotest.(check (list int)) "parents" [ -1; 0; 0; 2 ]
    (List.init t.n (fun i -> t.all.(i).parent));
  let self = Harness.Spans.self_times t in
  let get n = Hashtbl.find self n in
  let dur i = Harness.s_of_ns (Harness.Spans.duration t.all.(i)) in
  let close a b = Float.abs (a -. b) < 1e-9 in
  Alcotest.(check bool) "selves add up to the root" true
    (close (get "op" +. get "a" +. get "b") (dur 0));
  Alcotest.(check bool) "a sums both spans" true (close (get "a") (dur 1 +. dur 3));
  Alcotest.(check bool) "b excludes its child" true (close (get "b") (dur 2 -. dur 3));
  Alcotest.(check bool) "every self time covers its own spin" true
    (List.for_all (fun n -> get n >= 2e-4) [ "op"; "b" ] && get "a" >= 4e-4)

let () =
  Alcotest.run "perfbench"
    [
      ( "tail",
        [
          Alcotest.test_case "percentile rule" `Quick test_tail_percentile;
          Alcotest.test_case "value" `Quick test_tail_value;
        ] );
      ( "generators",
        [
          Alcotest.test_case "requests" `Quick test_requests_deterministic;
          Alcotest.test_case "traces" `Quick test_traces_deterministic;
        ] );
      ( "correctness",
        [
          Alcotest.test_case "corrupted solve output" `Quick test_corrupted_solve;
          Alcotest.test_case "blessed digest mismatch" `Quick test_blessed_mismatch;
          Alcotest.test_case "CSV stream check" `Quick test_csv_check;
        ] );
      ("vmhwm", [ Alcotest.test_case "parse" `Quick test_vmhwm ]);
      ( "layers",
        [
          Alcotest.test_case "pass differencing" `Quick test_diff_passes;
          Alcotest.test_case "span self times" `Quick test_span_self_times;
        ] );
    ]
