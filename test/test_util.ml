open Cacti_util

let approx = Alcotest.(check (float 1e-9))

let test_units_roundtrip () =
  approx "ns readback" 3.2 (Units.to_ns 3.2e-9);
  approx "nJ readback" 1.6 (Units.to_nj 1.6e-9);
  approx "mW readback" 3.5 (Units.to_mw 3.5e-3);
  approx "mm2 readback" 6.2 (Units.to_mm2 6.2e-6)

let test_units_pp () =
  let s pp v = Format.asprintf "%a" pp v in
  Alcotest.(check string) "time ns" "1.5 ns" (s Units.pp_time 1.5e-9);
  Alcotest.(check string) "time ps" "800 ps" (s Units.pp_time 0.8e-9);
  Alcotest.(check string) "power W" "3.6 W" (s Units.pp_power 3.6);
  Alcotest.(check string) "energy nJ" "1.6 nJ" (s Units.pp_energy 1.6e-9);
  Alcotest.(check string) "bytes" "24 MB" (s Units.pp_bytes (24 * 1024 * 1024))

let test_clog2 () =
  Alcotest.(check int) "clog2 1" 0 (Floatx.clog2 1);
  Alcotest.(check int) "clog2 2" 1 (Floatx.clog2 2);
  Alcotest.(check int) "clog2 3" 2 (Floatx.clog2 3);
  Alcotest.(check int) "clog2 4096" 12 (Floatx.clog2 4096);
  Alcotest.(check int) "clog2 4097" 13 (Floatx.clog2 4097)

let test_pow2 () =
  Alcotest.(check bool) "1024 is pow2" true (Floatx.is_pow2 1024);
  Alcotest.(check bool) "12 is not" false (Floatx.is_pow2 12);
  Alcotest.(check bool) "0 is not" false (Floatx.is_pow2 0);
  Alcotest.(check int) "pow2_ge 12" 16 (Floatx.pow2_ge 12);
  Alcotest.(check int) "pow2_ge 16" 16 (Floatx.pow2_ge 16)

let test_rel_err () =
  approx "under" (-0.25) (Floatx.rel_err ~actual:4. ~model:3.);
  approx "over" 0.10 (Floatx.rel_err ~actual:10. ~model:11.)

let test_rng_determinism () =
  let a = Rng.create 7L and b = Rng.create 7L in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.bits53 a) (Rng.bits53 b)
  done

let test_rng_bounds () =
  let r = Rng.create 11L in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    Alcotest.(check bool) "int in range" true (v >= 0 && v < 17);
    let f = Rng.float r 3.5 in
    Alcotest.(check bool) "float in range" true (f >= 0. && f < 3.5)
  done

let test_rng_geometric_mean () =
  let r = Rng.create 13L in
  let n = 50_000 in
  let p = 0.3 in
  let log1mp = log (1. -. p) in
  let sum = ref 0 in
  for _ = 1 to n do
    sum := !sum + Rng.geometric_log1mp r ~log1mp
  done;
  let mean = float_of_int !sum /. float_of_int n in
  let expected = (1. -. p) /. p in
  Alcotest.(check bool)
    (Printf.sprintf "geometric mean %.3f vs %.3f" mean expected)
    true
    (Float.abs (mean -. expected) < 0.1)

let test_rng_bernoulli () =
  let r = Rng.create 17L in
  let n = 50_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Rng.bernoulli r 0.25 then incr hits
  done;
  let frac = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "bernoulli rate" true (Float.abs (frac -. 0.25) < 0.02)


(* What [f] writes to stdout. *)
let capture_stdout f =
  let file = Filename.temp_file "test_util" ".out" in
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  let fd = Unix.openfile file [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  Fun.protect f ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved);
  let s = In_channel.with_open_bin file In_channel.input_all in
  Sys.remove file;
  s

let test_table_render () =
  let t = Table.create [ "name"; "v" ] in
  Table.add_row t [ "a"; "1" ];
  Table.add_sep t;
  Table.add_row t [ "bb" ];
  Alcotest.(check string) "aligned, short rows padded"
    "name  v\n-------\na     1\n-------\nbb     \n\n"
    (capture_stdout (fun () -> Table.print t))

let test_table_cells () =
  Alcotest.(check string) "pct" "+6.2%" (Table.cell_pct 0.062);
  Alcotest.(check string) "neg pct" "-5.8%" (Table.cell_pct (-0.058));
  Alcotest.(check string) "float" "3.100" (Table.cell_f 3.1)


let test_pool_map_order () =
  let xs = List.init 1000 (fun i -> i) in
  let expect = List.map (fun x -> x * x) xs in
  List.iter
    (fun j ->
      let pool = Pool.create ~jobs:j () in
      Alcotest.(check (list int))
        (Printf.sprintf "jobs=%d" j)
        expect
        (Pool.parallel_map ~chunk:7 pool (fun x -> x * x) xs))
    [ 1; 2; 4 ]

let test_pool_exception_propagates () =
  let pool = Pool.create ~jobs:3 () in
  Alcotest.check_raises "worker failure surfaces unwrapped" (Failure "boom")
    (fun () ->
      ignore
        (Pool.parallel_map ~chunk:4 pool
           (fun x -> if x = 17 then failwith "boom" else x)
           (List.init 64 (fun i -> i))))

let test_diag_render () =
  let d =
    Diag.errorf ~component:"cache_spec" ~reason:"non_pow2_block"
      "block size %d is not a power of two" 48
  in
  Alcotest.(check string) "one-line form"
    "error[cache_spec/non_pow2_block]: block size 48 is not a power of two"
    (Diag.to_string d);
  let w = Diag.warning ~component:"thermal" ~reason:"non_convergence" "slow" in
  Alcotest.(check string) "render joins with newlines"
    (Diag.to_string d ^ "\n" ^ Diag.to_string w)
    (Diag.render [ d; w ])

let test_diag_counts () =
  let a =
    { Diag.zero_counts with Diag.candidates = 10; evaluated = 7; nonfinite = 2;
      raised = 1 }
  in
  let b = { Diag.zero_counts with Diag.candidates = 5; geometry_rejected = 5 } in
  let s = Diag.add_counts a b in
  Alcotest.(check int) "candidates add" 15 s.Diag.candidates;
  Alcotest.(check int) "nonfinite add" 2 s.Diag.nonfinite;
  Alcotest.(check bool) "counts_to_string mentions totals" true
    (let str = Diag.counts_to_string s in
     String.length str > 0 && String.sub str 0 2 = "15")

let test_floatx_finite_guard () =
  Alcotest.(check (float 0.)) "finite_pos passes through" 1e-12
    (Floatx.finite_pos ~what:"x" 1e-12);
  let raises f =
    try ignore (f ()); false with Floatx.Non_finite _ -> true
  in
  Alcotest.(check bool) "nan rejected" true
    (raises (fun () -> Floatx.finite_pos ~what:"t_access" Float.nan));
  Alcotest.(check bool) "inf rejected" true
    (raises (fun () -> Floatx.finite_pos ~what:"area" Float.infinity));
  Alcotest.(check bool) "negative rejected by finite_pos" true
    (raises (fun () -> Floatx.finite_pos ~what:"e_read" (-1.)))

let prop_clamp =
  QCheck.Test.make ~name:"clamp stays in range" ~count:500
    QCheck.(triple (float_range (-100.) 100.) (float_range (-100.) 0.) (float_range 0. 100.))
    (fun (x, lo, hi) ->
      let v = Floatx.clamp ~lo ~hi x in
      v >= lo && v <= hi)

(* -------------------- rng fast paths -------------------- *)

let test_rng_bits53_matches_float () =
  let a = Rng.create 5L and b = Rng.create 5L in
  for _ = 1 to 200 do
    Alcotest.(check (float 0.))
      "bits53 / 2^53 equals float _ 1.0, same stream"
      (Rng.float a 1.0)
      (float_of_int (Rng.bits53 b) /. 9007199254740992.0)
  done

let test_rng_geometric_log1mp () =
  let a = Rng.create 6L and b = Rng.create 6L in
  let p = 0.3 in
  let log1mp = log (1. -. p) in
  for _ = 1 to 200 do
    let u = Float.max (Rng.float a 1.0) 1e-300 in
    Alcotest.(check int) "inverse CDF of one float draw"
      (int_of_float (Float.floor (log u /. log (1. -. p))))
      (Rng.geometric_log1mp b ~log1mp)
  done

(* -------------------- intmap -------------------- *)

let test_intmap_basics () =
  let m = Intmap.create ~capacity:4 () in
  Alcotest.(check int) "empty length" 0 (Intmap.length m);
  Intmap.set m 7 3;
  Intmap.set m 0 1;
  Alcotest.(check int) "get" 3 (Intmap.get m 7);
  Alcotest.(check int) "get key 0" 1 (Intmap.get m 0);
  Alcotest.(check int) "absent is 0" 0 (Intmap.get m 99);
  Intmap.set m 7 0;
  Alcotest.(check int) "zero removes" 0 (Intmap.get m 7);
  Alcotest.(check int) "length after remove" 1 (Intmap.length m);
  Intmap.set m 0 0;
  Alcotest.(check int) "empty again" 0 (Intmap.length m)

let test_intmap_grow () =
  let m = Intmap.create ~capacity:2 () in
  for k = 0 to 999 do
    Intmap.set m (k * 7919) (k + 1)
  done;
  Alcotest.(check int) "length" 1000 (Intmap.length m);
  let ok = ref true in
  for k = 0 to 999 do
    if Intmap.get m (k * 7919) <> k + 1 then ok := false
  done;
  Alcotest.(check bool) "all bindings survive growth" true !ok;
  (* A cleared table keeps its grown capacity and holds nothing, though
     its value slots are stale. *)
  Intmap.clear m;
  Alcotest.(check int) "length after clear" 0 (Intmap.length m);
  let seen = ref 0 in
  Intmap.iter (fun _ _ -> incr seen) m;
  Alcotest.(check int) "no binding iterated after clear" 0 !seen;
  for k = 0 to 999 do
    if Intmap.get m (k * 7919) <> 0 then ok := false
  done;
  Alcotest.(check bool) "every key absent after clear" true !ok;
  Intmap.set m 7919 5;
  Alcotest.(check int) "reuse after clear" 5 (Intmap.get m 7919);
  Alcotest.(check int) "one binding" 1 (Intmap.length m)

(* Backward-shift deletion is the subtle part: interleave inserts and
   removes (many probe-chain collisions at small capacity) and require
   agreement with a Hashtbl model at every step's end state. *)
let prop_intmap_model =
  QCheck.Test.make ~name:"intmap matches a Hashtbl model" ~count:200
    QCheck.(list (pair (int_range 0 64) (int_range 0 4)))
    (fun ops ->
      let m = Intmap.create ~capacity:4 () in
      let h = Hashtbl.create 16 in
      List.iter
        (fun (k, v) ->
          Intmap.set m k v;
          if v = 0 then Hashtbl.remove h k else Hashtbl.replace h k v)
        ops;
      Hashtbl.length h = Intmap.length m
      && Hashtbl.fold (fun k v acc -> acc && Intmap.get m k = v) h true
      &&
      let extra = ref false in
      Intmap.iter
        (fun k v -> if Hashtbl.find_opt h k <> Some v then extra := true)
        m;
      not !extra)

(* ------------------------------ cancel ----------------------------- *)

(* The reason a fired token carries, read through the solver's poll. *)
let why t =
  match Cancel.check t with () -> None | exception Cancel.Cancelled r -> Some r

let test_cancel_flag () =
  let t = Cancel.create ~reason:"test" () in
  Alcotest.(check bool) "fresh token quiet" false (Cancel.cancelled t);
  Cancel.check t;
  (* a poll on a live token is a no-op *)
  Cancel.cancel t;
  Cancel.cancel t;
  (* idempotent *)
  Alcotest.(check (option string)) "why" (Some "test") (why t);
  Alcotest.check_raises "check raises" (Cancel.Cancelled "test") (fun () ->
      Cancel.check t)

let test_cancel_deadline () =
  let fired =
    Cancel.create ~reason:"deadline"
      ~deadline_at:(Unix.gettimeofday () -. 0.001)
      ()
  in
  Alcotest.(check bool)
    "past deadline counts as fired" true (Cancel.cancelled fired);
  Alcotest.(check (option string)) "why" (Some "deadline") (why fired);
  let quiet =
    Cancel.create ~reason:"deadline"
      ~deadline_at:(Unix.gettimeofday () +. 3600.)
      ()
  in
  Alcotest.(check bool) "future deadline quiet" false (Cancel.cancelled quiet)

let test_cancel_parent_chain () =
  let drain = Cancel.create ~reason:"drain" () in
  let child = Cancel.create ~reason:"deadline" ~parent:drain () in
  Alcotest.(check bool) "child quiet" false (Cancel.cancelled child);
  Cancel.cancel drain;
  Alcotest.(check bool) "child fires with parent" true (Cancel.cancelled child);
  Alcotest.(check (option string))
    "carries the parent's reason" (Some "drain") (why child);
  (* firing a child never propagates up *)
  let p = Cancel.create ~reason:"p" () in
  let c = Cancel.create ~reason:"c" ~parent:p () in
  Cancel.cancel c;
  Alcotest.(check (option string)) "child's own reason" (Some "c") (why c);
  Alcotest.(check bool) "parent untouched" false (Cancel.cancelled p)

let test_cancel_never () =
  Alcotest.(check bool) "never is quiet" false (Cancel.cancelled Cancel.never);
  Cancel.check Cancel.never;
  Alcotest.(check (option string)) "never why" None (why Cancel.never)

let () =
  Alcotest.run "util"
    [
      ( "units",
        [
          Alcotest.test_case "roundtrip" `Quick test_units_roundtrip;
          Alcotest.test_case "pretty printing" `Quick test_units_pp;
        ] );
      ( "floatx",
        [
          Alcotest.test_case "clog2" `Quick test_clog2;
          Alcotest.test_case "pow2" `Quick test_pow2;
          Alcotest.test_case "rel_err" `Quick test_rel_err;
          QCheck_alcotest.to_alcotest prop_clamp;
        ] );
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "geometric mean" `Quick test_rng_geometric_mean;
          Alcotest.test_case "bernoulli rate" `Quick test_rng_bernoulli;
          Alcotest.test_case "bits53" `Quick test_rng_bits53_matches_float;
          Alcotest.test_case "geometric log1mp" `Quick test_rng_geometric_log1mp;
        ] );
      ( "intmap",
        [
          Alcotest.test_case "basics" `Quick test_intmap_basics;
          Alcotest.test_case "growth" `Quick test_intmap_grow;
          QCheck_alcotest.to_alcotest prop_intmap_model;
        ] );
      ( "diag",
        [
          Alcotest.test_case "render" `Quick test_diag_render;
          Alcotest.test_case "counts" `Quick test_diag_counts;
          Alcotest.test_case "finite guards" `Quick test_floatx_finite_guard;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "cells" `Quick test_table_cells;
        ] );
      ( "pool",
        [
          Alcotest.test_case "map order" `Quick test_pool_map_order;
          Alcotest.test_case "exception" `Quick test_pool_exception_propagates;
        ] );
      ( "cancel",
        [
          Alcotest.test_case "flag" `Quick test_cancel_flag;
          Alcotest.test_case "deadline" `Quick test_cancel_deadline;
          Alcotest.test_case "parent chain" `Quick test_cancel_parent_chain;
          Alcotest.test_case "never" `Quick test_cancel_never;
        ] );
    ]
