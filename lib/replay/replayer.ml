open Mcsim

type level = { lines : int; assoc : int; latency : int; policy : Policy.t }

type config = {
  l1 : level;
  l2 : level;
  l3 : level option;
  mem_latency : int;
  line_bytes : int;
  n_cores : int;
}

let lru_level ~lines ~assoc ~latency =
  { lines; assoc; latency; policy = Policy.Lru }

let default_config =
  {
    l1 = lru_level ~lines:512 ~assoc:8 ~latency:4;
    l2 = lru_level ~lines:16384 ~assoc:16 ~latency:14;
    l3 = Some (lru_level ~lines:131072 ~assoc:16 ~latency:42);
    mem_latency = 200;
    line_bytes = 64;
    n_cores = 1;
  }

let with_policies ~l1 ~l2 ~l3 cfg =
  {
    cfg with
    l1 = { cfg.l1 with policy = l1 };
    l2 = { cfg.l2 with policy = l2 };
    l3 = Option.map (fun lv -> { lv with policy = l3 }) cfg.l3;
  }

let with_preset (p : Policy.preset) cfg =
  with_policies ~l1:p.Policy.l1 ~l2:p.Policy.l2 ~l3:p.Policy.l3 cfg

let of_machine (m : Machine.t) =
  let level (c : Machine.cache_params) =
    lru_level ~lines:c.Machine.lines ~assoc:c.Machine.assoc
      ~latency:c.Machine.latency
  in
  let l3 =
    Option.map
      (fun (p : Machine.l3_params) ->
        lru_level
          ~lines:(p.Machine.bank.Machine.lines * p.Machine.n_banks)
          ~assoc:p.Machine.bank.Machine.assoc
          ~latency:(p.Machine.bank.Machine.latency + p.Machine.xbar_latency))
      m.Machine.l3
  in
  let t = m.Machine.mem.Machine.timing in
  {
    l1 = level m.Machine.l1;
    l2 = level m.Machine.l2;
    l3;
    mem_latency =
      t.Dram_sim.t_ctrl + t.Dram_sim.t_rcd + t.Dram_sim.t_cas
      + t.Dram_sim.t_burst;
    line_bytes = 64;
    n_cores = m.Machine.n_cores;
  }

type outcome = {
  mutable level : int;
  mutable cycles : int;
  mutable l1_victim : int;
  mutable l2_victim : int;
  mutable l3_victim : int;
  mutable writebacks : int;
  mutable invalidations : int;
  mutable c2c : bool;
}

(* Flat counter block, mirrored into [summary] on demand. *)
type acc = {
  mutable accesses : int;
  mutable reads : int;
  mutable writes : int;
  mutable l1_hits : int;
  mutable l2_accesses : int;
  mutable l2_hits : int;
  mutable l3_accesses : int;
  mutable l3_hits : int;
  mutable mem_accesses : int;
  mutable l1_evictions : int;
  mutable l2_evictions : int;
  mutable l3_evictions : int;
  mutable wb : int;
  mutable invals : int;
  mutable c2c : int;
  mutable total_cycles : int;
}

(* Latencies are hoisted out of [cfg] as cumulative per-level costs and
   the core caches indexed with [Array.unsafe_get] ([core] is always
   [tid mod n_cores], found without a division when [tid < n_cores]):
   [step] is the per-access hot loop of multi-hour replays. *)
type t = {
  cfg : config;
  line_shift : int;
  n_cores : int;
  multi : bool;  (** [n_cores > 1]: coherence work is needed at all *)
  lat_l1 : int;  (** L1 hit cost *)
  lat_l2 : int;  (** cumulative L2 hit cost (l1 + l2) *)
  lat_l3 : int;  (** cumulative L3 hit cost (0 without an L3) *)
  lat_mem : int;  (** cumulative full miss cost *)
  l1s : Cache_sim.t array;
  l2s : Cache_sim.t array;
  l3c : Cache_sim.t option;
  a : acc;
  out : outcome;
}

(* MESI encoding shared with Cache_sim's unboxed API. *)
let st_s = 1
let st_e = 2
let st_m = 3

let create (cfg : config) =
  if cfg.n_cores <= 0 then invalid_arg "Replayer.create: n_cores";
  if cfg.mem_latency <= 0 then invalid_arg "Replayer.create: mem_latency";
  if cfg.line_bytes <= 0 || not (Cacti_util.Floatx.is_pow2 cfg.line_bytes)
  then invalid_arg "Replayer.create: line_bytes must be a power of two";
  let mk (lv : level) =
    Cache_sim.create ~assoc:lv.assoc ~policy:lv.policy ~lines:lv.lines ()
  in
  let lat_l2 = cfg.l1.latency + cfg.l2.latency in
  let lat_l3 =
    match cfg.l3 with Some lv -> lat_l2 + lv.latency | None -> 0
  in
  {
    cfg;
    line_shift = Cacti_util.Floatx.clog2 cfg.line_bytes;
    n_cores = cfg.n_cores;
    multi = cfg.n_cores > 1;
    lat_l1 = cfg.l1.latency;
    lat_l2;
    lat_l3;
    lat_mem =
      (match cfg.l3 with Some _ -> lat_l3 | None -> lat_l2)
      + cfg.mem_latency;
    l1s = Array.init cfg.n_cores (fun _ -> mk cfg.l1);
    l2s = Array.init cfg.n_cores (fun _ -> mk cfg.l2);
    l3c = Option.map mk cfg.l3;
    a =
      {
        accesses = 0; reads = 0; writes = 0; l1_hits = 0; l2_accesses = 0;
        l2_hits = 0; l3_accesses = 0; l3_hits = 0; mem_accesses = 0;
        l1_evictions = 0; l2_evictions = 0; l3_evictions = 0; wb = 0;
        invals = 0; c2c = 0; total_cycles = 0;
      };
    out =
      {
        level = 0; cycles = 0; l1_victim = -1; l2_victim = -1;
        l3_victim = -1; writebacks = 0; invalidations = 0; c2c = false;
      };
  }

(* Push one dirty line down to the L3 (updating or allocating its copy) or,
   without an L3, to memory.  An L3 allocation can itself evict — the
   cascade is recorded. *)
let push_dirty_down t o line =
  match t.l3c with
  | Some l3 ->
      if Cache_sim.probe_int l3 line <> 0 then
        Cache_sim.set_state_int l3 ~line st_m
      else begin
        let ev = Cache_sim.fill_packed l3 ~line ~state_int:st_m in
        if ev >= 0 then begin
          t.a.l3_evictions <- t.a.l3_evictions + 1;
          if o.l3_victim < 0 then o.l3_victim <- ev;
          if ev land 3 = st_m then begin
            t.a.wb <- t.a.wb + 1;
            o.writebacks <- o.writebacks + 1
          end
        end
      end
  | None ->
      t.a.wb <- t.a.wb + 1;
      o.writebacks <- o.writebacks + 1

let fill_l2 t o core line state_int =
  let ev = Cache_sim.fill_packed (Array.unsafe_get t.l2s core) ~line ~state_int in
  if ev >= 0 then begin
    t.a.l2_evictions <- t.a.l2_evictions + 1;
    if o.l2_victim < 0 then o.l2_victim <- ev;
    let v = ev lsr 2 in
    (* inclusion: the L1 copy of an evicted L2 line dies with it *)
    Cache_sim.set_state_int (Array.unsafe_get t.l1s core) ~line:v 0;
    if ev land 3 = st_m then push_dirty_down t o v
  end

let fill_l1 t o core line state_int =
  let ev = Cache_sim.fill_packed (Array.unsafe_get t.l1s core) ~line ~state_int in
  if ev >= 0 then begin
    t.a.l1_evictions <- t.a.l1_evictions + 1;
    if o.l1_victim < 0 then o.l1_victim <- ev;
    if ev land 3 = st_m then
      (* write back into the L2 copy (inclusion guarantees presence) *)
      Cache_sim.set_state_int (Array.unsafe_get t.l2s core) ~line:(ev lsr 2)
        st_m
  end

(* Invalidate every other core's copy (a write claiming exclusivity). *)
let invalidate_others t o core line =
  for c = 0 to t.n_cores - 1 do
    if c <> core && Cache_sim.probe_int (Array.unsafe_get t.l2s c) line <> 0
    then begin
      Cache_sim.set_state_int (Array.unsafe_get t.l2s c) ~line 0;
      Cache_sim.set_state_int (Array.unsafe_get t.l1s c) ~line 0;
      t.a.invals <- t.a.invals + 1;
      o.invalidations <- o.invalidations + 1
    end
  done

(* A peer core holding the line dirty; -1 when none. *)
let dirty_owner t core line =
  let owner = ref (-1) in
  let c = ref 0 in
  while !owner < 0 && !c < t.n_cores do
    if !c <> core
       && Cache_sim.probe_int (Array.unsafe_get t.l2s !c) line = st_m
    then owner := !c
    else incr c
  done;
  !owner

let step t ~tid ~write ~addr =
  let o = t.out in
  let a = t.a in
  o.level <- 0;
  o.cycles <- 0;
  o.l1_victim <- -1;
  o.l2_victim <- -1;
  o.l3_victim <- -1;
  o.writebacks <- 0;
  o.invalidations <- 0;
  o.c2c <- false;
  let line = addr lsr t.line_shift in
  let core = if tid < t.n_cores then tid else tid mod t.n_cores in
  a.accesses <- a.accesses + 1;
  if write then a.writes <- a.writes + 1 else a.reads <- a.reads + 1;
  let l1 = Array.unsafe_get t.l1s core and l2 = Array.unsafe_get t.l2s core in
  let s1 = Cache_sim.access_int l1 ~line ~write in
  if s1 >= 0 then begin
    a.l1_hits <- a.l1_hits + 1;
    if write then begin
      (* claiming exclusivity on a shared line invalidates peers *)
      if s1 = st_s && t.multi then invalidate_others t o core line;
      if s1 <> st_m then Cache_sim.set_state_int l2 ~line st_m
    end;
    o.level <- 0;
    o.cycles <- t.lat_l1
  end
  else begin
    a.l2_accesses <- a.l2_accesses + 1;
    let s2 = Cache_sim.access_int l2 ~line ~write in
    if s2 >= 0 then begin
      a.l2_hits <- a.l2_hits + 1;
      if write && s2 = st_s && t.multi then invalidate_others t o core line;
      fill_l1 t o core line (if write then st_m else st_s);
      o.level <- 1;
      o.cycles <- t.lat_l2
    end
    else begin
      (* L2 miss: resolve coherence against peer caches first. *)
      if t.multi then begin
        let owner = dirty_owner t core line in
        if owner >= 0 then begin
          a.c2c <- a.c2c + 1;
          o.c2c <- true;
          if write then invalidate_others t o core line
          else begin
            (* downgrade the owner and push its dirty data down *)
            Cache_sim.set_state_int t.l2s.(owner) ~line st_s;
            Cache_sim.set_state_int t.l1s.(owner) ~line 0;
            push_dirty_down t o line
          end
        end
        else if write then invalidate_others t o core line
      end;
      match t.l3c with
      | Some l3 ->
          a.l3_accesses <- a.l3_accesses + 1;
          let s3 = Cache_sim.access_int l3 ~line ~write:false in
          if s3 >= 0 then begin
            a.l3_hits <- a.l3_hits + 1;
            fill_l2 t o core line (if write then st_m else st_s);
            fill_l1 t o core line (if write then st_m else st_s);
            o.level <- 2;
            o.cycles <- t.lat_l3
          end
          else begin
            a.mem_accesses <- a.mem_accesses + 1;
            let ev = Cache_sim.fill_packed l3 ~line ~state_int:st_s in
            if ev >= 0 then begin
              a.l3_evictions <- a.l3_evictions + 1;
              if o.l3_victim < 0 then o.l3_victim <- ev;
              if ev land 3 = st_m then begin
                a.wb <- a.wb + 1;
                o.writebacks <- o.writebacks + 1
              end
            end;
            fill_l2 t o core line (if write then st_m else st_e);
            fill_l1 t o core line (if write then st_m else st_e);
            o.level <- 3;
            o.cycles <- t.lat_mem
          end
      | None ->
          a.mem_accesses <- a.mem_accesses + 1;
          fill_l2 t o core line (if write then st_m else st_e);
          fill_l1 t o core line (if write then st_m else st_e);
          o.level <- 3;
          o.cycles <- t.lat_mem
    end
  end;
  a.total_cycles <- a.total_cycles + o.cycles;
  o

type summary = {
  accesses : int;
  reads : int;
  writes : int;
  l1_hits : int;
  l2_accesses : int;
  l2_hits : int;
  l3_accesses : int;
  l3_hits : int;
  mem_accesses : int;
  l1_evictions : int;
  l2_evictions : int;
  l3_evictions : int;
  writebacks : int;
  invalidations : int;
  c2c_transfers : int;
  total_cycles : int;
}

let empty_summary =
  {
    accesses = 0; reads = 0; writes = 0; l1_hits = 0; l2_accesses = 0;
    l2_hits = 0; l3_accesses = 0; l3_hits = 0; mem_accesses = 0;
    l1_evictions = 0; l2_evictions = 0; l3_evictions = 0; writebacks = 0;
    invalidations = 0; c2c_transfers = 0; total_cycles = 0;
  }

let add_summary x y =
  {
    accesses = x.accesses + y.accesses;
    reads = x.reads + y.reads;
    writes = x.writes + y.writes;
    l1_hits = x.l1_hits + y.l1_hits;
    l2_accesses = x.l2_accesses + y.l2_accesses;
    l2_hits = x.l2_hits + y.l2_hits;
    l3_accesses = x.l3_accesses + y.l3_accesses;
    l3_hits = x.l3_hits + y.l3_hits;
    mem_accesses = x.mem_accesses + y.mem_accesses;
    l1_evictions = x.l1_evictions + y.l1_evictions;
    l2_evictions = x.l2_evictions + y.l2_evictions;
    l3_evictions = x.l3_evictions + y.l3_evictions;
    writebacks = x.writebacks + y.writebacks;
    invalidations = x.invalidations + y.invalidations;
    c2c_transfers = x.c2c_transfers + y.c2c_transfers;
    total_cycles = x.total_cycles + y.total_cycles;
  }

let summary t =
  let a = t.a in
  {
    accesses = a.accesses;
    reads = a.reads;
    writes = a.writes;
    l1_hits = a.l1_hits;
    l2_accesses = a.l2_accesses;
    l2_hits = a.l2_hits;
    l3_accesses = a.l3_accesses;
    l3_hits = a.l3_hits;
    mem_accesses = a.mem_accesses;
    l1_evictions = a.l1_evictions;
    l2_evictions = a.l2_evictions;
    l3_evictions = a.l3_evictions;
    writebacks = a.wb;
    invalidations = a.invals;
    c2c_transfers = a.c2c;
    total_cycles = a.total_cycles;
  }

(* The summary of a finished replay, whose caches then go back to the
   calling domain's free list for the next replay's [create]. *)
let finish t =
  let s = summary t in
  Array.iter Cache_sim.release t.l1s;
  Array.iter Cache_sim.release t.l2s;
  Option.iter Cache_sim.release t.l3c;
  s

(* ---------------- set-sharded parallel replay ----------------

   With power-of-two [line_bytes] ([Cache_sim] always builds a power-of-two
   set count), an address's L1/L2/L3 set indices all embed the same low bits
   of [addr lsr line_shift].  Partitioning the trace on those m bits
   therefore hands each worker a disjoint slice of every level: a fill's
   victim shares the inserted line's set index, inclusion kills and dirty
   push-downs act on that same line, and peer invalidations / c2c probes act
   on the missing line itself — so no shard ever touches another shard's
   sets.  Replacement state is per-set for every policy (LRU's global clock
   only ever compares stamps within one set, and the per-set access order is
   preserved inside a shard), the timing model is additive with no
   cross-access contention, and all counters are sums — so the per-shard runs
   compose to bit-identical summaries.  A shard is the serial loop over the
   trace's stream, filtered to its records, so it holds nothing per
   record. *)

type render =
  Buffer.t -> seq:int -> tid:int -> write:bool -> addr:int -> outcome -> unit

(* Every shard decodes the whole trace to find its records, so the shard
   count multiplies the decoding; 256 shards is far more than the domains
   of any host. *)
let max_shard_bits = 8

let shard_plan cfg ~bits =
  if bits <= 0 then Ok 0
  else if cfg.line_bytes <= 0 || not (Cacti_util.Floatx.is_pow2 cfg.line_bytes)
  then
    Error
      (Cacti_util.Diag.warningf ~component:"replay" ~reason:"shard_unsupported"
         "line_bytes %d is not a power of two — falling back to serial replay"
         cfg.line_bytes)
  else begin
    let level_bits (lv : level) =
      Cacti_util.Floatx.clog2
        (Cache_sim.set_count ~assoc:lv.assoc ~lines:lv.lines)
    in
    let b3 = match cfg.l3 with None -> max_int | Some lv -> level_bits lv in
    Ok
      (Int.min
         (Int.min bits max_shard_bits)
         (Int.min (level_bits cfg.l1) (Int.min (level_bits cfg.l2) b3)))
  end

(* A slab is flushed once it holds [flush_bytes], so it is under
   [flush_bytes] plus one row (at most 337 bytes for [Report]'s rows): its
   copy for [emit] stays under [Max_young_wosize] (256 words, 2 KiB) and
   dies in the minor heap. *)
let flush_bytes = 1024

(* One replayer over [records] in trace order; rendered rows are buffered
   and flushed through [emit] in [flush_bytes] slabs. *)
let run_serial ?render ?(emit = fun (_ : string) -> ()) cfg records =
  let r = create cfg in
  (match render with
  | None ->
      records ~f:(fun ~tid ~write ~addr ->
          ignore (step r ~tid ~write ~addr : outcome))
  | Some rd ->
      let buf = Buffer.create flush_bytes in
      let seq = ref 0 in
      records ~f:(fun ~tid ~write ~addr ->
          let o = step r ~tid ~write ~addr in
          rd buf ~seq:!seq ~tid ~write ~addr o;
          incr seq;
          if Buffer.length buf >= flush_bytes then begin
            emit (Buffer.contents buf);
            Buffer.clear buf
          end);
      if Buffer.length buf > 0 then emit (Buffer.contents buf));
  finish r

(* More domains than the host runs at once only add contention. *)
let resolve_jobs = function
  | Some j -> Int.max 1 (Int.min j (Domain.recommended_domain_count ()))
  | None -> Cacti_util.Pool.default_jobs ()

(* The records of shard [shard] of [2^bits], in trace order: at 0 bits the
   unfiltered stream. *)
let shard_records source ~line_shift ~bits ~shard ~f =
  if bits = 0 then Trace_io.iter_source source ~f
  else
    let mask = (1 lsl bits) - 1 in
    Trace_io.iter_source source ~f:(fun ~tid ~write ~addr ->
        if (addr lsr line_shift) land mask = shard then f ~tid ~write ~addr)

(* Summary-only replay of every config in [cfgs] in [2^bits] shards
   each: the (config × shard) work items fan out over
   one pool, so even a single config uses every domain, and a config's
   shard summaries add up in fixed shard order. *)
let replay_summaries ~jobs ~bits cfgs source =
  let ns = 1 lsl bits in
  let sums = Array.make (Array.length cfgs * ns) empty_summary in
  let pool = Cacti_util.Pool.create ~jobs () in
  Cacti_util.Pool.run_chunked ~chunk:1 pool (Array.length sums) (fun i ->
      let cfg = cfgs.(i / ns) in
      sums.(i) <-
        run_serial cfg
          (shard_records source
             ~line_shift:(Cacti_util.Floatx.clog2 cfg.line_bytes)
             ~bits ~shard:(i mod ns)));
  Array.init (Array.length cfgs) (fun c ->
      Array.fold_left add_summary empty_summary (Array.sub sums (c * ns) ns))

let run_configs ?jobs cfgs source =
  let jobs = resolve_jobs jobs in
  (* One shard count for every config: the finest plan all of them
     support. *)
  let plan (bits, diags) cfg =
    if bits > 0 && cfg.line_bytes <> cfgs.(0).line_bytes then
      ( 0,
        [
          Cacti_util.Diag.warning ~component:"replay"
            ~reason:"shard_unsupported"
            "the configurations differ in line_bytes — falling back to \
             serial replay";
        ] )
    else
      match shard_plan cfg ~bits with
      | Ok m -> (m, diags)
      | Error d -> (0, [ d ])
  in
  let bits, diags =
    Array.fold_left plan (Cacti_util.Floatx.clog2 jobs, []) cfgs
  in
  (replay_summaries ~jobs ~bits cfgs source, diags)

let run_sharded ?jobs ?bits ?render ?emit cfg source =
  match render with
  | Some _ -> (run_serial ?render ?emit cfg (Trace_io.iter_source source), [])
  | None ->
      let jobs = resolve_jobs jobs in
      let requested =
        match bits with Some b -> b | None -> Cacti_util.Floatx.clog2 jobs
      in
      let m, diags =
        match shard_plan cfg ~bits:requested with
        | Ok m -> (m, [])
        | Error d -> (0, [ d ])
      in
      ((replay_summaries ~jobs ~bits:m [| cfg |] source).(0), diags)
