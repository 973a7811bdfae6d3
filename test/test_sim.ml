open Mcsim

(* A small hand-built machine so the simulator is tested independently of
   the CACTI solver. *)
let tiny_cache ~lines ~assoc ~latency : Machine.cache_params =
  {
    Machine.lines;
    assoc;
    latency;
    cycle = 1;
    e_read = 0.1e-9;
    e_write = 0.12e-9;
    p_leak = 0.01;
    p_refresh = 0.;
  }

let timing : Dram_sim.timing =
  Dram_sim.basic_timing ~t_rcd:24 ~t_cas:26 ~t_rp:12 ~t_rc:82 ~t_rrd:8
    ~t_burst:5 ~t_ctrl:20

let mem_params policy : Machine.mem_params =
  {
    Machine.timing;
    policy;
    powerdown = None;
    n_channels = 2;
    n_banks = 8;
    n_chips_per_rank = 8;
    e_activate = 16e-9;
    e_read = 6e-9;
    e_write = 7e-9;
    p_standby = 0.7;
    p_refresh = 0.08;
    bus_mw_per_gbps = 2.0;
    line_transfer_gbits = 512e-9;
  }

let machine ?(l3 = true) () : Machine.t =
  {
    Machine.name = "test";
    n_cores = 4;
    threads_per_core = 2;
    clock_hz = 2e9;
    l1 = tiny_cache ~lines:128 ~assoc:4 ~latency:2;
    l2 = tiny_cache ~lines:2048 ~assoc:8 ~latency:5;
    l3 =
      (if l3 then
         Some
           {
             Machine.bank = tiny_cache ~lines:16384 ~assoc:8 ~latency:6;
             n_banks = 4;
             xbar_latency = 3;
             e_xbar = 0.3e-9;
             p_xbar_leak = 0.05;
           }
       else None);
    mem = mem_params Dram_sim.Open_page;
    core_power = 10.;
    instr_per_fetch_line = 8;
  }

let small_app : Workload.app =
  {
    Workload.name = "unit";
    mem_ratio = 0.3;
    fp_ratio = 0.3;
    write_ratio = 0.3;
    regions =
      [
        {
          Workload.rname = "hot";
          size_bytes = 64 * 1024;
          pattern = Workload.Random_burst 4;
          sharing = Workload.Shared;
          weight = 0.7;
          wr_scale = 1.0;
        };
        {
          Workload.rname = "big";
          size_bytes = 16 * 1024 * 1024;
          pattern = Workload.Stream;
          sharing = Workload.Private_slice;
          weight = 0.3;
          wr_scale = 1.0;
        };
      ];
    barrier_interval = 20_000;
    lock_interval = 20_000;
    lock_hold = 100;
    n_locks = 4;
  }

let run ?(instr = 400_000) ?(l3 = true) () =
  let params =
    { Engine.default_params with total_instructions = instr }
  in
  Engine.run ~params (machine ~l3 ()) small_app

(* -------------------- cache_sim -------------------- *)

(* Cache_sim line states: I = 0, S = 1, E = 2, M = 3. *)
let st_i, st_s, st_e, st_m = (0, 1, 2, 3)

let test_cache_hit_after_fill () =
  let c = Cache_sim.create ~assoc:4 ~lines:64 () in
  Alcotest.(check int) "initially miss" (-1)
    (Cache_sim.access_int c ~line:42 ~write:false);
  Alcotest.(check int) "free way absorbs the fill" (-1)
    (Cache_sim.fill_packed c ~line:42 ~state_int:st_s);
  Alcotest.(check int) "hit after fill" st_s
    (Cache_sim.access_int c ~line:42 ~write:false)

let test_cache_write_upgrades () =
  let c = Cache_sim.create ~assoc:4 ~lines:64 () in
  ignore (Cache_sim.fill_packed c ~line:7 ~state_int:st_e);
  Alcotest.(check int) "hit returns the pre-write state" st_e
    (Cache_sim.access_int c ~line:7 ~write:true);
  Alcotest.(check int) "state is M" st_m (Cache_sim.probe_int c 7)

let test_cache_lru_eviction () =
  let c = Cache_sim.create ~assoc:2 ~lines:4 () in
  (* two sets; lines 0,2,4 map to set 0 *)
  ignore (Cache_sim.fill_packed c ~line:0 ~state_int:st_s);
  ignore (Cache_sim.fill_packed c ~line:2 ~state_int:st_s);
  ignore (Cache_sim.access_int c ~line:0 ~write:false);
  (* 2 is now LRU *)
  Alcotest.(check int) "evicts LRU, packed with its state" ((2 * 4) + st_s)
    (Cache_sim.fill_packed c ~line:4 ~state_int:st_s)

let test_cache_set_state_invalidate () =
  let c = Cache_sim.create ~assoc:2 ~lines:4 () in
  ignore (Cache_sim.fill_packed c ~line:9 ~state_int:st_m);
  Cache_sim.set_state_int c ~line:9 st_i;
  Alcotest.(check int) "gone" st_i (Cache_sim.probe_int c 9);
  Alcotest.(check int) "occupancy zero" 0 (Cache_sim.occupancy c)

let test_cache_dirty_lines () =
  let c = Cache_sim.create ~assoc:4 ~lines:16 () in
  ignore (Cache_sim.fill_packed c ~line:1 ~state_int:st_m);
  ignore (Cache_sim.fill_packed c ~line:2 ~state_int:st_s);
  ignore (Cache_sim.fill_packed c ~line:3 ~state_int:st_m);
  Alcotest.(check (list int)) "two dirty" [ st_m; st_s; st_m ]
    (List.map (Cache_sim.probe_int c) [ 1; 2; 3 ])

let prop_cache_occupancy_bounded =
  QCheck.Test.make ~name:"occupancy never exceeds capacity" ~count:50
    QCheck.(list_of_size (Gen.return 200) (int_range 0 500))
    (fun lines ->
      let c = Cache_sim.create ~assoc:4 ~lines:32 () in
      List.iter
        (fun l ->
          if Cache_sim.access_int c ~line:l ~write:false < 0 then
            ignore (Cache_sim.fill_packed c ~line:l ~state_int:st_s))
        lines;
      Cache_sim.occupancy c <= 32)

(* Cache_sim against the naive policy model (test/oracle/policy_naive.ml)
   over random streams.  [Touch (line, write, state)] accesses the line
   and fills it in [state] on a miss, as the engine and the replayer do;
   [Set (line, s)] is [set_state_int] (0 invalidates).  Invalidations
   leave holes in sets that were full, and a fill must then take the
   leftmost hole rather than a victim, so every stream has them.  Every
   return value is compared, then the occupancy and every line's state. *)
module Naive = Oracle.Policy_naive

type cache_op = Touch of int * bool * int | Set of int * int

let show_cache_op = function
  | Touch (l, w, s) -> Printf.sprintf "%s%d/%d" (if w then "W" else "R") l s
  | Set (l, s) -> Printf.sprintf "S%d=%d" l s

let gen_cache_ops ~span =
  QCheck.Gen.(
    list_size (int_bound 400)
      (frequency
         [
           ( 8,
             map3
               (fun l w s -> Touch (l, w, s))
               (int_bound span) bool (int_range 1 3) );
           (2, map (fun l -> Set (l, 0)) (int_bound span));
           (1, map2 (fun l s -> Set (l, s)) (int_bound span) (int_range 1 3));
         ]))

(* Leaves a cache of another geometry and policy on this domain's free
   list with every array stale: three times its capacity streamed through
   it, so every set is full of valid ways whose stamps and set words have
   moved, then released.  The next [create] takes its arrays (or older
   ones, equally stale) unless none fits. *)
let release_stale (policy, lines, assoc) =
  match Cache_sim.create ~assoc ~policy ~lines () with
  | exception Invalid_argument _ -> ()
  | c ->
      for l = 0 to (3 * lines) - 1 do
        if Cache_sim.access_int c ~line:l ~write:(l land 1 = 1) < 0 then
          ignore (Cache_sim.fill_packed c ~line:l ~state_int:(1 + (l mod 3)))
      done;
      Cache_sim.release c

(* The cache under test is built from recycled arrays: [stale] is
   released first, and the cache itself is released after the check. *)
let cache_matches_oracle ~stale policy ~lines ~assoc ops =
  release_stale stale;
  match Cache_sim.create ~assoc ~policy ~lines () with
  | exception Invalid_argument _ -> (
      match Naive.create ~assoc ~policy ~lines () with
      | exception Invalid_argument _ -> true
      | _ -> false)
  | c ->
      let m = Naive.create ~assoc ~policy ~lines () in
      let step = function
        | Touch (line, write, s) ->
            let hit = Cache_sim.access_int c ~line ~write in
            hit = Naive.access m ~line ~write
            && (hit >= 0
               || Cache_sim.fill_packed c ~line ~state_int:s
                  = Naive.fill m ~line ~state:s)
        | Set (line, s) ->
            Cache_sim.set_state_int c ~line s;
            Naive.set_state m ~line s;
            true
      in
      let ok =
        Cache_sim.set_count ~assoc ~lines = Naive.sets m
        && List.for_all step ops
        && Cache_sim.occupancy c = Naive.occupancy m
        && List.for_all
             (fun l -> Cache_sim.probe_int c l = Naive.probe m l)
             (List.init ((2 * lines) + 3) Fun.id)
      in
      Cache_sim.release c;
      ok

(* Power-of-two geometries, and ones [create] rounds down to fewer sets
   of more ways (non-power-of-two ways refuse Tree-PLRU; [~lines:20
   ~assoc:2] builds 16 lines). *)
let oracle_geometries =
  [ (1, 1); (4, 4); (8, 2); (16, 4); (32, 8); (16, 16); (6, 2); (12, 2);
    (12, 4); (24, 4); (40, 8); (48, 4); (10, 5); (20, 2); (3, 1) ]

(* All 4 * 4 * 4 * 2 * 3 = 384 parameter tuples, one per bit pattern of
   [i]: h2, h3 and m take two bits each, r one, u the rest (0..2). *)
let qlru_tuples =
  List.init 384 (fun i ->
      Policy.Qlru
        { h2 = i land 3; h3 = (i lsr 2) land 3; m = (i lsr 4) land 3;
          r = (i lsr 6) land 1; u = i lsr 7 })

let gen_policy =
  QCheck.Gen.oneof
    (QCheck.Gen.oneofl qlru_tuples
    :: List.map QCheck.Gen.return Policy.[ Lru; Tree_plru; Mru; Mru_n ])

(* A stale cache's policy and geometry, its lines scaled by 1, 2 or 4. *)
let gen_stale =
  QCheck.Gen.(
    map3
      (fun policy (lines, assoc) k -> (policy, lines * k, assoc))
      gen_policy (oneofl oracle_geometries) (oneofl [ 1; 2; 4 ]))

let prop_cache_policy_oracle =
  let gen =
    QCheck.Gen.(
      oneofl oracle_geometries >>= fun (lines, assoc) ->
      pair gen_policy gen_stale >>= fun (policy, stale) ->
      map
        (fun ops -> (stale, policy, lines, assoc, ops))
        (gen_cache_ops ~span:((2 * lines) + 2)))
  in
  let print ((sp, sl, sa), policy, lines, assoc, ops) =
    Printf.sprintf "%s lines=%d assoc=%d after stale %s lines=%d assoc=%d [%s]"
      (Policy.to_string policy) lines assoc (Policy.to_string sp) sl sa
      (String.concat " " (List.map show_cache_op ops))
  in
  let shrink (stale, policy, lines, assoc, ops) =
    QCheck.Iter.map
      (fun ops -> (stale, policy, lines, assoc, ops))
      (QCheck.Shrink.list ops)
  in
  QCheck.Test.make ~name:"random streams = policy oracle" ~count:1000
    (QCheck.make ~print ~shrink gen)
    (fun (stale, policy, lines, assoc, ops) ->
      cache_matches_oracle ~stale policy ~lines ~assoc ops)

(* Every QLRU parameter tuple (384) on a single set, a power-of-two set
   array and a widened one, one fixed random stream each, each cache
   built from recycled arrays. *)
let test_cache_every_qlru_tuple () =
  let rand = Random.State.make [| 19 |] in
  let stale_rand = Random.State.make [| 23 |] in
  List.iter
    (fun policy ->
      List.iter
        (fun (lines, assoc) ->
          let ops =
            QCheck.Gen.generate1 ~rand (gen_cache_ops ~span:((2 * lines) + 2))
          in
          let stale = QCheck.Gen.generate1 ~rand:stale_rand gen_stale in
          if not (cache_matches_oracle ~stale policy ~lines ~assoc ops) then
            Alcotest.failf "%s lines=%d assoc=%d diverges from the oracle"
              (Policy.to_string policy) lines assoc)
        [ (8, 8); (16, 4); (24, 4) ])
    qlru_tuples

(* -------------------- heap -------------------- *)

(* Payloads in push order until the heap is empty. *)
let drain_payloads h =
  let rec go acc =
    match Heap.pop_payload h with -1 -> List.rev acc | p -> go (p :: acc)
  in
  go []

let test_heap_orders () =
  let h = Heap.create ~capacity:4 in
  List.iter (fun (t, p) -> Heap.push h ~time:t ~payload:p)
    [ (5, 50); (1, 10); (3, 30); (2, 20); (4, 40) ];
  Alcotest.(check (list int)) "sorted" [ 10; 20; 30; 40; 50 ]
    (drain_payloads h)

(* Ties are deterministic but NOT first-in-first-out: the strict-[<] sift
   loops never move equal keys, so the pop order on ties is a pure
   function of the push sequence.  The engine's event loop shares one RNG
   across all threads, which makes this exact order part of the
   simulator's bit-reproducibility contract — pin it. *)
let test_heap_equal_keys_pinned () =
  let h = Heap.create ~capacity:5 in
  for p = 0 to 4 do
    Heap.push h ~time:7 ~payload:p
  done;
  let order = List.init 5 (fun _ -> Heap.pop_payload h) in
  Alcotest.(check (list int)) "tie order pinned" [ 0; 4; 3; 2; 1 ] order

let test_heap_equal_keys_reproducible () =
  let drive () =
    (* Times from a tiny range force constant ties; interleaved pops
       exercise sift-down on equal keys. *)
    let g = Cacti_util.Rng.create 11L in
    let h = Heap.create ~capacity:4 in
    let out = ref [] in
    for p = 0 to 199 do
      Heap.push h ~time:(Cacti_util.Rng.int g 4) ~payload:p;
      if Cacti_util.Rng.int g 2 = 1 then out := Heap.pop_payload h :: !out
    done;
    List.rev !out @ drain_payloads h
  in
  Alcotest.(check (list int)) "identical sequences pop identically"
    (drive ()) (drive ())

let test_heap_grow_free_at_capacity () =
  (* The engine pre-sizes its heap to the thread count (one pending event
     per thread), so filling to exactly the requested capacity must not
     reallocate. *)
  let h = Heap.create ~capacity:8 in
  for p = 0 to 7 do
    Heap.push h ~time:p ~payload:p
  done;
  Alcotest.(check int) "no growth at exact capacity" 8 (Heap.capacity h);
  Heap.push h ~time:9 ~payload:9;
  Alcotest.(check bool) "grows past capacity" true (Heap.capacity h > 8)

let prop_heap_sorted =
  QCheck.Test.make ~name:"heap pops in time order" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 100) (int_range 0 10_000))
    (fun times ->
      let h = Heap.create ~capacity:4 in
      (* payload = time, so the payloads come out in time order *)
      List.iter (fun t -> Heap.push h ~time:t ~payload:t) times;
      drain_payloads h = List.stable_sort compare times)

(* -------------------- dram_sim -------------------- *)

let test_dram_row_hit_faster () =
  let d = Dram_sim.create ~policy:Dram_sim.Open_page ~timing () in
  let l1 = Dram_sim.access d ~line:0 ~write:false ~now:0 in
  let l2 = Dram_sim.access d ~line:1 ~write:false ~now:10_000 - 10_000 in
  (* lines 0 and 1 are on different channels; use same-channel same-row *)
  let l3 = Dram_sim.access d ~line:2 ~write:false ~now:20_000 - 20_000 in
  Alcotest.(check bool) "row hit faster than activate" true (l3 < l1);
  ignore l2;
  Alcotest.(check bool) "row hits counted" true
    ((Dram_sim.counts d).Dram_sim.row_hits >= 1)

let test_dram_closed_page_precharges () =
  let d = Dram_sim.create ~policy:Dram_sim.Closed_page ~timing () in
  ignore (Dram_sim.access d ~line:0 ~write:false ~now:0);
  ignore (Dram_sim.access d ~line:2 ~write:false ~now:10_000);
  let c = Dram_sim.counts d in
  Alcotest.(check int) "no row hits under closed page" 0 c.Dram_sim.row_hits;
  Alcotest.(check bool) "precharges issued" true (c.Dram_sim.precharges >= 2)

let test_dram_bank_conflict_queues () =
  let d = Dram_sim.create ~policy:Dram_sim.Closed_page ~timing () in
  let t1 = Dram_sim.access d ~line:0 ~write:false ~now:0 in
  (* same channel/bank, different row: must wait for tRC *)
  let row_stride = 2 * 128 * 8 in
  let t2 = Dram_sim.access d ~line:row_stride ~write:false ~now:0 in
  Alcotest.(check bool) "second access queued" true (t2 > t1)

let test_dram_counts_consistency () =
  let d = Dram_sim.create ~policy:Dram_sim.Open_page ~timing () in
  let rng = Cacti_util.Rng.create 5L in
  for i = 0 to 999 do
    ignore
      (Dram_sim.access d
         ~line:(Cacti_util.Rng.int rng 100_000)
         ~write:(i mod 3 = 0) ~now:(i * 50))
  done;
  let c = Dram_sim.counts d in
  Alcotest.(check int) "reads+writes = accesses" 1000
    (c.Dram_sim.reads + c.Dram_sim.writes);
  Alcotest.(check bool) "activates = misses <= accesses" true
    (c.Dram_sim.activates + c.Dram_sim.row_hits = 1000);
  Alcotest.(check int) "bus cycles = 5 per access" 5000 c.Dram_sim.busy_cycles



let prop_dram_completion_after_issue =
  QCheck.Test.make ~name:"dram completion never precedes issue" ~count:50
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let d = Dram_sim.create ~policy:Dram_sim.Open_page ~timing () in
      let rng = Cacti_util.Rng.create (Int64.of_int seed) in
      let ok = ref true in
      let now = ref 0 in
      for _ = 1 to 200 do
        now := !now + Cacti_util.Rng.int rng 100;
        let fin =
          Dram_sim.access d
            ~line:(Cacti_util.Rng.int rng 1_000_000)
            ~write:(Cacti_util.Rng.int rng 2 = 1) ~now:!now
        in
        if fin < !now then ok := false
      done;
      !ok)

let prop_engine_instruction_conservation =
  QCheck.Test.make ~name:"engine executes exactly the quota" ~count:5
    QCheck.(int_range 50_000 200_000)
    (fun n ->
      let params = { Engine.default_params with total_instructions = n } in
      let st = Engine.run ~params (machine ()) small_app in
      let threads = 8 in
      let quota = n / threads in
      st.Stats.instructions = quota * threads)

(* Pinned end-to-end counters.  The engine's hot path is heavily
   optimized (packed cache-way words, the open-addressing int->int
   directory, allocation-free accounting), and these goldens pin its
   output bit-for-bit against the straightforward original
   implementation.  An intentional semantic change must re-capture them;
   an optimization must not move a single count. *)
let golden_fields (st : Stats.t) =
  let b = st.Stats.breakdown in
  let d = Option.get st.Stats.dram in
  [
    ("instructions", st.Stats.instructions);
    ("exec_cycles", st.Stats.exec_cycles);
    ("l1_accesses", st.Stats.l1_accesses);
    ("l1_hits", st.Stats.l1_hits);
    ("l2_accesses", st.Stats.l2_accesses);
    ("l2_hits", st.Stats.l2_hits);
    ("l3_accesses", st.Stats.l3_accesses);
    ("l3_hits", st.Stats.l3_hits);
    ("c2c_transfers", st.Stats.c2c_transfers);
    ("invalidations", st.Stats.invalidations);
    ("l1_writebacks", st.Stats.l1_writebacks);
    ("l2_writebacks", st.Stats.l2_writebacks);
    ("l3_writebacks", st.Stats.l3_writebacks);
    ("mem_reads", st.Stats.mem_reads);
    ("mem_writes", st.Stats.mem_writes);
    ("read_count", st.Stats.read_count);
    ("read_latency_sum", st.Stats.read_latency_sum);
    ("ifetch_lines", st.Stats.ifetch_lines);
    ("breakdown.instr", b.Stats.instr);
    ("breakdown.l2", b.Stats.l2);
    ("breakdown.l3", b.Stats.l3);
    ("breakdown.mem", b.Stats.mem);
    ("breakdown.barrier", b.Stats.barrier);
    ("breakdown.lock", b.Stats.lock);
    ("dram.activates", d.Dram_sim.activates);
    ("dram.reads", d.Dram_sim.reads);
    ("dram.writes", d.Dram_sim.writes);
    ("dram.precharges", d.Dram_sim.precharges);
    ("dram.row_hits", d.Dram_sim.row_hits);
    ("dram.busy_cycles", d.Dram_sim.busy_cycles);
  ]

let check_golden name expected st =
  List.iter2
    (fun want (field, got) ->
      Alcotest.(check int) (name ^ "." ^ field) want got)
    expected (golden_fields st)

let test_engine_golden_l3 () =
  check_golden "l3"
    [
      400_000; 285_088; 119_888; 89_096; 30_792; 6_887; 9_734; 4_188;
      14_171; 17_972; 15_629; 10_000; 0; 5_546; 0; 83_767; 909_146;
      50_000; 1_042_908; 123_457; 335_625; 737_388; 26_322; 55; 4_591;
      5_546; 0; 4_583; 955; 27_730;
    ]
    (run ())

let test_engine_golden_nol3 () =
  check_golden "nol3"
    [
      400_000; 347_765; 119_884; 89_151; 30_733; 7_983; 0; 0; 13_395;
      16_639; 15_761; 9_445; 0; 9_355; 9_445; 83_781; 1_249_482; 50_000;
      1_045_583; 138_851; 267_900; 1_273_693; 40_319; 0; 6_985; 9_355;
      9_445; 6_977; 11_815; 94_000;
    ]
    (run ~l3:false ())

(* The coherence directory must never leak: with the zero-means-absent
   Intmap a line with no sharers has no entry at all, and every sharer
   bit must be backed by a line actually valid in that core's L2. *)
let test_engine_directory_audit () =
  List.iter
    (fun l3 ->
      let params =
        { Engine.default_params with total_instructions = 200_000 }
      in
      let _st, a = Engine.run_audited ~params (machine ~l3 ()) small_app in
      Alcotest.(check bool) "every sharer bit backed by an L2 line" true
        a.Engine.directory_backed;
      Alcotest.(check bool) "inclusion: sharer bits <= valid L2 lines" true
        (a.Engine.directory_sharer_bits <= a.Engine.l2_valid_lines);
      Alcotest.(check bool) "entries have at least one sharer bit" true
        (a.Engine.directory_population <= a.Engine.directory_sharer_bits))
    [ true; false ]

(* A finished run hands its caches and directory to the next run on the
   domain, so no state may carry over: machines with three L3 sizes and
   one without an L3 run here in the order A, B, C, D, A, C, and each
   repeat must equal its machine's first run exactly. *)
let test_engine_recycled_state_no_leak () =
  let with_l3 ~lines ~assoc =
    let m = machine () in
    {
      m with
      Machine.l3 =
        Option.map
          (fun p ->
            { p with Machine.bank = tiny_cache ~lines ~assoc ~latency:6 })
          m.Machine.l3;
    }
  in
  let a = with_l3 ~lines:16384 ~assoc:8
  and b = with_l3 ~lines:4096 ~assoc:4
  and c = with_l3 ~lines:65536 ~assoc:16
  and d = machine ~l3:false () in
  let params = { Engine.default_params with total_instructions = 200_000 } in
  let cell m =
    let st, audit = Engine.run_audited ~params m small_app in
    (st, Energy.system m small_app st, audit)
  in
  let first_a = cell a in
  ignore (cell b);
  let first_c = cell c in
  ignore (cell d);
  let check name first again =
    let (st, sys, audit), (st', sys', audit') = (first, again) in
    Alcotest.(check bool) (name ^ ": Stats.t") true (compare st st' = 0);
    Alcotest.(check bool) (name ^ ": Energy.system") true (compare sys sys' = 0);
    Alcotest.(check bool) (name ^ ": audit") true (compare audit audit' = 0)
  in
  check "A again" first_a (cell a);
  check "C again" first_c (cell c)

(* -------------------- dram extras -------------------- *)

let timing_full : Dram_sim.timing =
  {
    timing with
    Dram_sim.t_faw = 60;
    t_wtr = 15;
    t_refi = 2000;
    t_rfc = 300;
  }

let test_dram_tfaw_throttles_activates () =
  let d = Dram_sim.create ~n_channels:1 ~policy:Dram_sim.Closed_page ~timing:timing_full () in
  (* Five activates to five different banks on one channel: the fifth must
     wait for the four-activate window. *)
  let row_stride = 128 in
  let times =
    List.map
      (fun b -> Dram_sim.access d ~line:(b * row_stride) ~write:false ~now:0)
      [ 0; 1; 2; 3; 4 ]
  in
  let t5 = List.nth times 4 and t4 = List.nth times 3 in
  Alcotest.(check bool) "fifth activate delayed by tFAW" true (t5 - t4 > 8)

let test_dram_refresh_blackout () =
  let d = Dram_sim.create ~n_channels:1 ~policy:Dram_sim.Closed_page ~timing:timing_full () in
  (* An access issued inside a refresh blackout window is pushed past it. *)
  let t_in_blackout = Dram_sim.access d ~line:0 ~write:false ~now:2010 in
  Alcotest.(check bool) "pushed past tRFC" true (t_in_blackout >= 2300)

let test_dram_wtr_turnaround () =
  let d = Dram_sim.create ~n_channels:1 ~policy:Dram_sim.Open_page ~timing:timing_full () in
  ignore (Dram_sim.access d ~line:0 ~write:true ~now:0);
  (* a read right after a write on the same channel pays tWTR *)
  let t_rd = Dram_sim.access d ~line:1024 ~write:false ~now:0 in
  let d2 = Dram_sim.create ~n_channels:1 ~policy:Dram_sim.Open_page ~timing:timing_full () in
  ignore (Dram_sim.access d2 ~line:1024 ~write:false ~now:0);
  ignore d2;
  Alcotest.(check bool) "turnaround adds delay" true (t_rd > 0)

let test_dram_powerdown_accounting () =
  let pd = { Dram_sim.idle_threshold = 100; wake_penalty = 10 } in
  let d =
    Dram_sim.create ~n_channels:1 ~powerdown:pd ~policy:Dram_sim.Open_page
      ~timing ()
  in
  ignore (Dram_sim.access d ~line:0 ~write:false ~now:0);
  (* long idle gap -> power-down entered, wake penalty paid *)
  let lat_after_idle =
    Dram_sim.access d ~line:2 ~write:false ~now:100_000 - 100_000
  in
  let c = Dram_sim.counts d in
  Alcotest.(check bool) "powerdown cycles accrued" true
    (c.Dram_sim.powerdown_cycles > 50_000);
  Alcotest.(check int) "one wakeup" 1 c.Dram_sim.wakeups;
  Alcotest.(check bool) "wake penalty visible" true (lat_after_idle > 20)

(* -------------------- workload -------------------- *)

let test_workload_determinism () =
  let g1 = Workload.gen small_app ~n_threads:8 ~thread_id:3 ~seed:9L in
  let g2 = Workload.gen small_app ~n_threads:8 ~thread_id:3 ~seed:9L in
  for _ = 1 to 500 do
    Alcotest.(check (pair int bool)) "same stream" (Workload.next g1)
      (Workload.next g2)
  done

let test_workload_thread_isolation () =
  (* Private slices of different threads never overlap. *)
  let app =
    {
      small_app with
      Workload.regions =
        [
          {
            Workload.rname = "p";
            size_bytes = 1024 * 1024;
            pattern = Workload.Stream;
            sharing = Workload.Private_slice;
            weight = 1.0;
            wr_scale = 1.0;
          };
        ];
    }
  in
  let lines tid =
    let g = Workload.gen app ~n_threads:4 ~thread_id:tid ~seed:1L in
    let s = Hashtbl.create 64 in
    for _ = 1 to 2000 do
      Hashtbl.replace s (fst (Workload.next g)) ()
    done;
    s
  in
  let s0 = lines 0 and s1 = lines 1 in
  Hashtbl.iter
    (fun l () ->
      Alcotest.(check bool) "disjoint" false (Hashtbl.mem s1 l))
    s0

let test_workload_write_ratio () =
  let g = Workload.gen small_app ~n_threads:8 ~thread_id:0 ~seed:2L in
  let n = 20_000 in
  let writes = ref 0 in
  for _ = 1 to n do
    if snd (Workload.next g) then incr writes
  done;
  let frac = float_of_int !writes /. float_of_int n in
  Alcotest.(check bool) "write ratio ~0.3" true (Float.abs (frac -. 0.3) < 0.02)

let test_workload_validation () =
  let bad = { small_app with Workload.mem_ratio = 1.5 } in
  Alcotest.(check bool) "bad mem ratio rejected" true
    (try Workload.validate bad; false with Invalid_argument _ -> true);
  let bad_weights =
    {
      small_app with
      Workload.regions =
        [
          {
            Workload.rname = "w";
            size_bytes = 1024 * 1024;
            pattern = Workload.Stream;
            sharing = Workload.Shared;
            weight = 0.5;
            wr_scale = 1.0;
          };
        ];
    }
  in
  Alcotest.(check bool) "non-normalized weights rejected" true
    (try Workload.validate bad_weights; false with Invalid_argument _ -> true)

let test_apps_all_valid () =
  List.iter Workload.validate Apps.all;
  Alcotest.(check int) "eight apps" 8 (List.length Apps.all);
  Alcotest.(check bool) "lookup" true
    ((Apps.by_name "cg.C").Workload.name = "cg.C")


let test_workload_strided_pattern () =
  let app =
    {
      small_app with
      Workload.regions =
        [
          {
            Workload.rname = "strided";
            size_bytes = 1024 * 1024;
            pattern = Workload.Strided 16;
            sharing = Workload.Private_slice;
            weight = 1.0;
            wr_scale = 1.0;
          };
        ];
    }
  in
  let g = Workload.gen app ~n_threads:4 ~thread_id:0 ~seed:3L in
  let l1, _ = Workload.next g in
  let l2, _ = Workload.next g in
  (* 16-word stride = 2 lines per step *)
  Alcotest.(check int) "stride of two lines" 2 (l2 - l1)

let test_workload_random_burst_locality () =
  let app =
    {
      small_app with
      Workload.regions =
        [
          {
            Workload.rname = "bursty";
            size_bytes = 64 * 1024 * 1024;
            pattern = Workload.Random_burst 8;
            sharing = Workload.Shared;
            weight = 1.0;
            wr_scale = 1.0;
          };
        ];
    }
  in
  let g = Workload.gen app ~n_threads:4 ~thread_id:0 ~seed:4L in
  (* Bursts of 8 words touch the same line ~7 times in each 8-access
     window, so consecutive-equal-line pairs must be common. *)
  let same = ref 0 and n = 20_000 in
  let prev = ref (-1) in
  for _ = 1 to n do
    let l, _ = Workload.next g in
    if l = !prev then incr same;
    prev := l
  done;
  let frac = float_of_int !same /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "spatial locality %.2f > 0.5" frac)
    true (frac > 0.5)

let test_nonmem_cpi () =
  (* With no FP at all, every non-memory instruction takes 4 cycles. *)
  let a = { small_app with Workload.fp_ratio = 0. } in
  Alcotest.(check (float 1e-9)) "all-integer cpi" 4. (Workload.nonmem_cpi a);
  let b = { small_app with Workload.fp_ratio = 0.7; mem_ratio = 0.3 } in
  Alcotest.(check (float 1e-9)) "all-FP cpi" 1. (Workload.nonmem_cpi b)


let test_apps_structure_matches_paper_grouping () =
  let mb n = n * 1024 * 1024 in
  let footprint (a : Workload.app) =
    List.fold_left
      (fun acc r -> acc + r.Workload.size_bytes)
      0 a.Workload.regions
  in
  (* ft/lu working sets fit the big L3s (<= 72MB total footprint). *)
  List.iter
    (fun a ->
      Alcotest.(check bool)
        (a.Workload.name ^ " fits DRAM L3s")
        true
        (footprint a <= mb 72))
    [ Apps.ft_b; Apps.lu_c ];
  (* bt/is/mg/sp exceed every L3. *)
  List.iter
    (fun a ->
      Alcotest.(check bool)
        (a.Workload.name ^ " exceeds 192MB")
        true
        (footprint a > mb 192))
    (List.map Apps.by_name [ "bt.C"; "is.C"; "mg.B"; "sp.C" ]);
  (* ua is the low-memory-intensity app; is.C the integer one. *)
  Alcotest.(check bool) "ua low mem ratio" true
    (Apps.ua_c.Workload.mem_ratio <= 0.15);
  Alcotest.(check bool) "is integer-heavy" true
    ((Apps.by_name "is.C").Workload.fp_ratio < 0.1);
  Alcotest.(check bool) "ua has locks" true (Apps.ua_c.Workload.lock_interval > 0)

let test_apps_deterministic_streams () =
  List.iter
    (fun a ->
      let g1 = Workload.gen a ~n_threads:32 ~thread_id:5 ~seed:11L in
      let g2 = Workload.gen a ~n_threads:32 ~thread_id:5 ~seed:11L in
      for _ = 1 to 200 do
        Alcotest.(check (pair int bool)) (a.Workload.name ^ " deterministic")
          (Workload.next g1) (Workload.next g2)
      done)
    Apps.all

(* -------------------- engine -------------------- *)

let test_engine_completes_and_consistent () =
  let st = run () in
  Alcotest.(check bool) "instructions executed" true
    (st.Stats.instructions >= 400_000 - 8 * 2);
  Alcotest.(check bool) "wall clock positive" true (st.Stats.exec_cycles > 0);
  (match Stats.check_consistency st with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "some L1 hits" true (st.Stats.l1_hits > 0);
  Alcotest.(check bool) "dram counts recorded" true (st.Stats.dram <> None)

let test_engine_deterministic () =
  let a = run () and b = run () in
  Alcotest.(check int) "same cycles" a.Stats.exec_cycles b.Stats.exec_cycles;
  Alcotest.(check int) "same l1 accesses" a.Stats.l1_accesses b.Stats.l1_accesses;
  Alcotest.(check int) "same mem reads" a.Stats.mem_reads b.Stats.mem_reads

let test_engine_l3_filters_memory () =
  let with_l3 = run () and without = run ~l3:false () in
  Alcotest.(check bool) "L3 reduces memory reads" true
    (with_l3.Stats.mem_reads < without.Stats.mem_reads);
  Alcotest.(check bool) "nol3 has no L3 accesses" true
    (without.Stats.l3_accesses = 0)

let test_engine_breakdown_covers_time () =
  let st = run () in
  let total = Stats.total_breakdown_cycles st in
  let threads = 8 in
  (* Total per-thread busy time can't exceed wall clock x threads (barrier
     idle included in the breakdown). *)
  Alcotest.(check bool) "breakdown <= threads x wall" true
    (total <= st.Stats.exec_cycles * threads);
  Alcotest.(check bool) "breakdown > 60% of thread time" true
    (float_of_int total
    > 0.6 *. float_of_int (st.Stats.exec_cycles * threads) *. 0.5);
  Alcotest.(check bool) "some barrier time" true (st.Stats.breakdown.Stats.barrier > 0);
  Alcotest.(check bool) "some lock time" true (st.Stats.breakdown.Stats.lock >= 0)

let test_engine_coherence_traffic () =
  (* The shared hot region with 30% writes must create invalidations. *)
  let st = run () in
  Alcotest.(check bool) "invalidations occur" true (st.Stats.invalidations > 0)

let test_engine_read_latency_reasonable () =
  let st = run () in
  let lat = Stats.avg_read_latency st in
  Alcotest.(check bool)
    (Printf.sprintf "avg read latency %.1f in [2, 500]" lat)
    true
    (lat >= 2. && lat < 500.)

let test_energy_accounting () =
  let cfg = machine () in
  let st = run () in
  let p = Energy.compute cfg small_app st in
  Alcotest.(check bool) "all components nonnegative" true
    (p.Energy.l1_leak >= 0. && p.Energy.l1_dyn >= 0. && p.Energy.l2_dyn >= 0.
   && p.Energy.l3_dyn >= 0. && p.Energy.mem_chip_dyn >= 0.
   && p.Energy.mem_bus >= 0.);
  let sys = Energy.system cfg small_app st in
  Alcotest.(check bool) "system > core" true
    (sys.Energy.system_power > cfg.Machine.core_power);
  Alcotest.(check bool) "edp = E*t" true
    (Float.abs
       (sys.Energy.energy_delay
       -. (sys.Energy.energy_joules *. sys.Energy.exec_seconds))
    < 1e-12)

let test_energy_leakage_constant_terms () =
  let cfg = machine () in
  let st = run () in
  let p = Energy.compute cfg small_app st in
  (* 2 L1s per core x 4 cores x 0.01 W *)
  Alcotest.(check (float 1e-9)) "l1 leak" 0.08 p.Energy.l1_leak;
  Alcotest.(check (float 1e-9)) "l2 leak" 0.04 p.Energy.l2_leak;
  Alcotest.(check (float 1e-9)) "l3 leak" 0.04 p.Energy.l3_leak;
  Alcotest.(check (float 1e-9)) "mem standby" 1.4 p.Energy.mem_standby

let () =
  Alcotest.run "sim"
    [
      ( "cache_sim",
        [
          Alcotest.test_case "hit after fill" `Quick test_cache_hit_after_fill;
          Alcotest.test_case "write upgrades" `Quick test_cache_write_upgrades;
          Alcotest.test_case "LRU eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "invalidate" `Quick test_cache_set_state_invalidate;
          Alcotest.test_case "dirty lines" `Quick test_cache_dirty_lines;
          QCheck_alcotest.to_alcotest prop_cache_occupancy_bounded;
          QCheck_alcotest.to_alcotest prop_cache_policy_oracle;
          Alcotest.test_case "every QLRU tuple = policy oracle" `Quick
            test_cache_every_qlru_tuple;
        ] );
      ( "heap",
        [
          Alcotest.test_case "orders" `Quick test_heap_orders;
          Alcotest.test_case "equal keys pinned" `Quick
            test_heap_equal_keys_pinned;
          Alcotest.test_case "equal keys reproducible" `Quick
            test_heap_equal_keys_reproducible;
          Alcotest.test_case "grow-free at capacity" `Quick
            test_heap_grow_free_at_capacity;
          QCheck_alcotest.to_alcotest prop_heap_sorted;
        ] );
      ( "dram_sim",
        [
          Alcotest.test_case "row hit faster" `Quick test_dram_row_hit_faster;
          Alcotest.test_case "closed page" `Quick test_dram_closed_page_precharges;
          Alcotest.test_case "bank conflict" `Quick test_dram_bank_conflict_queues;
          Alcotest.test_case "counts" `Quick test_dram_counts_consistency;
          Alcotest.test_case "tFAW" `Quick test_dram_tfaw_throttles_activates;
          Alcotest.test_case "refresh blackout" `Quick test_dram_refresh_blackout;
          Alcotest.test_case "write turnaround" `Quick test_dram_wtr_turnaround;
          Alcotest.test_case "powerdown" `Quick test_dram_powerdown_accounting;
          QCheck_alcotest.to_alcotest prop_dram_completion_after_issue;
        ] );
      ( "workload",
        [
          Alcotest.test_case "determinism" `Quick test_workload_determinism;
          Alcotest.test_case "slice isolation" `Quick test_workload_thread_isolation;
          Alcotest.test_case "write ratio" `Quick test_workload_write_ratio;
          Alcotest.test_case "validation" `Quick test_workload_validation;
          Alcotest.test_case "presets valid" `Quick test_apps_all_valid;
          Alcotest.test_case "strided pattern" `Quick test_workload_strided_pattern;
          Alcotest.test_case "burst locality" `Quick test_workload_random_burst_locality;
          Alcotest.test_case "paper grouping" `Quick test_apps_structure_matches_paper_grouping;
          Alcotest.test_case "preset determinism" `Quick test_apps_deterministic_streams;
          Alcotest.test_case "cpi model" `Quick test_nonmem_cpi;
        ] );
      ( "engine",
        [
          Alcotest.test_case "completes" `Quick test_engine_completes_and_consistent;
          Alcotest.test_case "deterministic" `Quick test_engine_deterministic;
          Alcotest.test_case "L3 filters" `Quick test_engine_l3_filters_memory;
          Alcotest.test_case "breakdown" `Quick test_engine_breakdown_covers_time;
          Alcotest.test_case "coherence" `Quick test_engine_coherence_traffic;
          Alcotest.test_case "read latency" `Quick test_engine_read_latency_reasonable;
          Alcotest.test_case "golden counters (L3)" `Quick test_engine_golden_l3;
          Alcotest.test_case "golden counters (no L3)" `Quick
            test_engine_golden_nol3;
          Alcotest.test_case "directory audit" `Quick
            test_engine_directory_audit;
          Alcotest.test_case "recycled state does not leak" `Quick
            test_engine_recycled_state_no_leak;
          QCheck_alcotest.to_alcotest prop_engine_instruction_conservation;
        ] );
      ( "energy",
        [
          Alcotest.test_case "accounting" `Quick test_energy_accounting;
          Alcotest.test_case "constant terms" `Quick test_energy_leakage_constant_terms;
        ] );
    ]
