open Cacti_util

let approx = Alcotest.(check (float 1e-9))

let test_units_roundtrip () =
  approx "ns roundtrip" 3.2 (Units.to_ns (Units.ns 3.2));
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

let test_geomean () =
  approx "geomean" 2. (Floatx.geomean [ 1.; 2.; 4. ]);
  Alcotest.check_raises "empty" (Invalid_argument "Floatx.geomean: empty")
    (fun () -> ignore (Floatx.geomean []))

let test_rng_determinism () =
  let a = Rng.create 7L and b = Rng.create 7L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_split_independent () =
  let a = Rng.create 7L in
  let c = Rng.split a in
  let x = Rng.next_int64 a and y = Rng.next_int64 c in
  Alcotest.(check bool) "distinct streams" true (x <> y)

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
  let sum = ref 0 in
  for _ = 1 to n do
    sum := !sum + Rng.geometric r p
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


let test_rng_choose_weighted () =
  let r = Rng.create 23L in
  let arr = [| (1.0, "a"); (3.0, "b") |] in
  let counts = Hashtbl.create 2 in
  for _ = 1 to 20_000 do
    let v = Rng.choose_weighted r arr in
    Hashtbl.replace counts v (1 + try Hashtbl.find counts v with Not_found -> 0)
  done;
  let b = float_of_int (Hashtbl.find counts "b") /. 20_000. in
  Alcotest.(check bool) "weighted ~0.75" true (Float.abs (b -. 0.75) < 0.02)

let test_rng_exponential_mean () =
  let r = Rng.create 29L in
  let n = 30_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential r 5.0
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "exp mean ~5" true (Float.abs (mean -. 5.0) < 0.2)

let test_rng_copy_preserves_stream () =
  let a = Rng.create 31L in
  ignore (Rng.next_int64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copies continue identically" (Rng.next_int64 a)
    (Rng.next_int64 b)

let test_table_render () =
  let t = Table.create [ "name"; "v" ] in
  Table.add_row t [ "a"; "1" ];
  Table.add_sep t;
  Table.add_row t [ "bb" ];
  let s = Table.render t in
  Alcotest.(check bool) "has header" true
    (String.length s > 0 && String.sub s 0 4 = "name");
  Alcotest.(check bool) "pads short rows" true
    (String.length (Table.render t) > 10)

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

let test_pool_filter_map_order () =
  let xs = List.init 500 (fun i -> i) in
  let f x = if x mod 3 = 0 then Some (x * 2) else None in
  let expect = List.filter_map f xs in
  List.iter
    (fun j ->
      let pool = Pool.create ~jobs:j () in
      Alcotest.(check (list int))
        (Printf.sprintf "jobs=%d" j)
        expect
        (Pool.parallel_filter_map ~chunk:3 pool f xs))
    [ 1; 3; 5 ]

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
  Alcotest.(check int) "faults" 3 (Diag.faults s);
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

let prop_pareto_bounded =
  QCheck.Test.make ~name:"pareto draw stays within bounds" ~count:500
    QCheck.(int_range 0 10000)
    (fun seed ->
      let r = Rng.create (Int64.of_int seed) in
      let v = Rng.pareto_bounded r ~alpha:1.2 ~lo:1. ~hi:100. in
      v >= 0.99 && v <= 100.01)

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
    Alcotest.(check int) "same draw as geometric" (Rng.geometric a p)
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
  Alcotest.(check bool) "mem" true (Intmap.mem m 7);
  Intmap.set m 7 0;
  Alcotest.(check bool) "zero removes" false (Intmap.mem m 7);
  Alcotest.(check int) "length after remove" 1 (Intmap.length m);
  Intmap.remove m 0;
  Alcotest.(check int) "empty again" 0 (Intmap.length m);
  Intmap.set m 12 5;
  Intmap.clear m;
  Alcotest.(check int) "clear" 0 (Intmap.length m)

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
  Alcotest.(check bool) "capacity grew" true (Intmap.capacity m >= 1024)

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

(* ----------------------------- hashring ---------------------------- *)

let test_hashring_basics () =
  let r = Hashring.create 4 in
  Alcotest.(check int) "shards" 4 (Hashring.shards r);
  Alcotest.(check int) "default vnodes" 64 (Hashring.vnodes r);
  let s = Hashring.lookup r "fp:anything" in
  Alcotest.(check bool) "lookup in range" true (s >= 0 && s < 4);
  Alcotest.(check int) "single shard routes everything to 0" 0
    (Hashring.lookup (Hashring.create 1) "whatever");
  Alcotest.check_raises "zero shards rejected"
    (Invalid_argument "Hashring.create: need at least one shard") (fun () ->
      ignore (Hashring.create 0))

let keys_of_seed seed n =
  let rng = Rng.create (Int64.of_int seed) in
  List.init n (fun i ->
      Printf.sprintf "fp:%d:%Ld" i (Rng.next_int64 rng))

(* Routing is a pure function of (n, vnodes, key): two independently
   built rings must agree on every key. *)
let prop_hashring_deterministic =
  QCheck.Test.make ~name:"hashring: independent rings agree" ~count:50
    QCheck.(pair (int_range 1 12) (int_range 0 1000))
    (fun (n, seed) ->
      let a = Hashring.create n and b = Hashring.create n in
      List.for_all
        (fun k -> Hashring.lookup a k = Hashring.lookup b k)
        (keys_of_seed seed 100))

(* With 64 vnodes/shard and many random keys, no shard should see more
   than a small constant multiple of the mean load, and none should
   starve outright.  The bound is loose on purpose: it catches a broken
   ring (everything on one shard) without flaking on hash variance. *)
let prop_hashring_balanced =
  QCheck.Test.make ~name:"hashring: load stays balanced" ~count:20
    QCheck.(pair (int_range 2 8) (int_range 0 1000))
    (fun (n, seed) ->
      let r = Hashring.create n in
      let load = Array.make n 0 in
      let n_keys = 2000 in
      List.iter
        (fun k -> load.(Hashring.lookup r k) <- load.(Hashring.lookup r k) + 1)
        (keys_of_seed seed n_keys);
      let mean = float_of_int n_keys /. float_of_int n in
      Array.for_all
        (fun c ->
          let c = float_of_int c in
          c > 0.25 *. mean && c < 2.5 *. mean)
        load)

(* Growing the ring from n to n+1 shards must only move keys onto the
   new shard (the n-ring's points are a subset of the (n+1)-ring's), and
   the moved fraction should be in the ballpark of 1/(n+1). *)
let prop_hashring_minimal_remap =
  QCheck.Test.make ~name:"hashring: adding a shard remaps ~1/(n+1)" ~count:20
    QCheck.(pair (int_range 2 8) (int_range 0 1000))
    (fun (n, seed) ->
      let before = Hashring.create n and after = Hashring.create (n + 1) in
      let keys = keys_of_seed seed 2000 in
      let moved = ref 0 and stolen_elsewhere = ref false in
      List.iter
        (fun k ->
          let a = Hashring.lookup before k and b = Hashring.lookup after k in
          if a <> b then begin
            incr moved;
            if b <> n then stolen_elsewhere := true
          end)
        keys;
      let frac = float_of_int !moved /. float_of_int (List.length keys) in
      let expect = 1. /. float_of_int (n + 1) in
      (not !stolen_elsewhere) && frac < 3. *. expect)

(* ------------------------------ cancel ----------------------------- *)

let test_cancel_flag () =
  let t = Cancel.create ~reason:"test" () in
  Alcotest.(check bool) "fresh token quiet" false (Cancel.cancelled t);
  Cancel.check t;
  (* a poll on a live token is a no-op *)
  Cancel.cancel t;
  Cancel.cancel t;
  (* idempotent *)
  Alcotest.(check (option string)) "why" (Some "test") (Cancel.why t);
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
  Alcotest.(check (option string)) "why" (Some "deadline") (Cancel.why fired);
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
    "carries the parent's reason" (Some "drain") (Cancel.why child);
  (* firing a child never propagates up *)
  let p = Cancel.create ~reason:"p" () in
  let c = Cancel.create ~reason:"c" ~parent:p () in
  Cancel.cancel c;
  Alcotest.(check (option string)) "child's own reason" (Some "c") (Cancel.why c);
  Alcotest.(check bool) "parent untouched" false (Cancel.cancelled p)

let test_cancel_never () =
  Alcotest.(check bool) "never is quiet" false (Cancel.cancelled Cancel.never);
  Cancel.check Cancel.never;
  Alcotest.(check (option string)) "never why" None (Cancel.why Cancel.never)

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
          Alcotest.test_case "geomean" `Quick test_geomean;
          QCheck_alcotest.to_alcotest prop_clamp;
        ] );
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "geometric mean" `Quick test_rng_geometric_mean;
          Alcotest.test_case "bernoulli rate" `Quick test_rng_bernoulli;
          Alcotest.test_case "choose_weighted" `Quick test_rng_choose_weighted;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "copy" `Quick test_rng_copy_preserves_stream;
          Alcotest.test_case "bits53" `Quick test_rng_bits53_matches_float;
          Alcotest.test_case "geometric log1mp" `Quick test_rng_geometric_log1mp;
          QCheck_alcotest.to_alcotest prop_pareto_bounded;
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
          Alcotest.test_case "filter_map order" `Quick test_pool_filter_map_order;
          Alcotest.test_case "exception" `Quick test_pool_exception_propagates;
        ] );
      ( "hashring",
        [
          Alcotest.test_case "basics" `Quick test_hashring_basics;
          QCheck_alcotest.to_alcotest prop_hashring_deterministic;
          QCheck_alcotest.to_alcotest prop_hashring_balanced;
          QCheck_alcotest.to_alcotest prop_hashring_minimal_remap;
        ] );
      ( "cancel",
        [
          Alcotest.test_case "flag" `Quick test_cancel_flag;
          Alcotest.test_case "deadline" `Quick test_cancel_deadline;
          Alcotest.test_case "parent chain" `Quick test_cancel_parent_chain;
          Alcotest.test_case "never" `Quick test_cancel_never;
        ] );
    ]
