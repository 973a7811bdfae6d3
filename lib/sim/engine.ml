type run_params = {
  total_instructions : int;
  seed : int64;
  barrier_overhead : int;
}

let default_params =
  { total_instructions = 16_000_000; seed = 42L; barrier_overhead = 60 }

type tstate = Running | At_barrier | Finished

type thread = {
  id : int;
  core : int;
  gen : Workload.gen;
  mutable now : int;
  mutable instr_done : int;
  (* The fractional-cycle residue lives in [sim.residues] (a float array,
     so stores stay unboxed) rather than in this mixed record, where every
     store would box. *)
  mutable next_barrier : int;
  mutable next_lock : int;
  mutable state : tstate;
  mutable barrier_arrival : int;
}

(* MESI state encoding shared with Cache_sim's unboxed API. *)
let st_s = 1
let st_e = 2
let st_m = 3

(* Int-typed min/max: the polymorphic stdlib versions go through the
   generic comparison on every call, which shows up in the inner loop. *)
let imin (a : int) b = if a <= b then a else b
let imax (a : int) b = if a >= b then a else b

(* Flat per-run counter block: one record of unboxed ints, allocated once
   per simulation and written with plain [setfield]s (no write barrier, no
   pointer chase through [Stats.t.breakdown]) on the per-access path.  It
   is flushed into the returned [Stats.t] when the run completes. *)
type acc = {
  mutable instructions : int;
  mutable l1_accesses : int;
  mutable l1_hits : int;
  mutable l2_accesses : int;
  mutable l2_hits : int;
  mutable l3_accesses : int;
  mutable l3_hits : int;
  mutable c2c_transfers : int;
  mutable invalidations : int;
  mutable l1_writebacks : int;
  mutable l2_writebacks : int;
  mutable l3_writebacks : int;
  mutable mem_reads : int;
  mutable mem_writes : int;
  mutable read_count : int;
  mutable read_latency_sum : int;
  mutable b_instr : int;
  mutable b_l2 : int;
  mutable b_l3 : int;
  mutable b_mem : int;
  mutable b_barrier : int;
  mutable b_lock : int;
}

let make_acc () =
  {
    instructions = 0; l1_accesses = 0; l1_hits = 0; l2_accesses = 0;
    l2_hits = 0; l3_accesses = 0; l3_hits = 0; c2c_transfers = 0;
    invalidations = 0; l1_writebacks = 0; l2_writebacks = 0;
    l3_writebacks = 0; mem_reads = 0; mem_writes = 0; read_count = 0;
    read_latency_sum = 0; b_instr = 0; b_l2 = 0; b_l3 = 0; b_mem = 0;
    b_barrier = 0; b_lock = 0;
  }

let flush_acc a (st : Stats.t) =
  let b = st.Stats.breakdown in
  st.Stats.instructions <- a.instructions;
  st.Stats.l1_accesses <- a.l1_accesses;
  st.Stats.l1_hits <- a.l1_hits;
  st.Stats.l2_accesses <- a.l2_accesses;
  st.Stats.l2_hits <- a.l2_hits;
  st.Stats.l3_accesses <- a.l3_accesses;
  st.Stats.l3_hits <- a.l3_hits;
  st.Stats.c2c_transfers <- a.c2c_transfers;
  st.Stats.invalidations <- a.invalidations;
  st.Stats.l1_writebacks <- a.l1_writebacks;
  st.Stats.l2_writebacks <- a.l2_writebacks;
  st.Stats.l3_writebacks <- a.l3_writebacks;
  st.Stats.mem_reads <- a.mem_reads;
  st.Stats.mem_writes <- a.mem_writes;
  st.Stats.read_count <- a.read_count;
  st.Stats.read_latency_sum <- a.read_latency_sum;
  b.Stats.instr <- a.b_instr;
  b.Stats.l2 <- a.b_l2;
  b.Stats.l3 <- a.b_l3;
  b.Stats.mem <- a.b_mem;
  b.Stats.barrier <- a.b_barrier;
  b.Stats.lock <- a.b_lock

type sim = {
  cfg : Machine.t;
  app : Workload.app;
  params : run_params;
  quota : int;  (** instructions per thread *)
  l1s : Cache_sim.t array;  (** per core *)
  l2s : Cache_sim.t array;
  l3 : Cache_sim.t array;  (** per bank; empty when no L3 *)
  l3_free : int array;
  dram : Dram_sim.t;
  directory : Cacti_util.Intmap.t;  (** line -> core presence bitmask *)
  locks_free : int array;
  rng : Cacti_util.Rng.t;
  residues : float array;  (** per-thread fractional-cycle residue *)
  a : acc;
  stats : Stats.t;
  threads : thread array;
  heap : Heap.t;
  mutable barrier_waiting : int;
  mutable alive : int;
}

let dir_get s line = Cacti_util.Intmap.get s.directory line

(* [Intmap.set] removes on mask 0, so a line whose last sharer departs can
   never linger as a dead entry regardless of which path zeroed the mask. *)
let dir_set s line mask = Cacti_util.Intmap.set s.directory line mask
let dir_add s line core = dir_set s line (dir_get s line lor (1 lsl core))

let dir_remove s line core =
  dir_set s line (dir_get s line land lnot (1 lsl core))

(* L1 inclusion in L2: evicting/invalidating at L2 kills the L1 copy. *)
let l1_invalidate s core line = Cache_sim.set_state_int s.l1s.(core) ~line 0

let mem_write_back s now line =
  s.a.mem_writes <- s.a.mem_writes + 1;
  ignore (Dram_sim.access s.dram ~line ~write:true ~now)

(* Push a dirty L2 victim down: to the L3 if present (updating its copy or
   allocating), else to memory. *)
let l2_victim_write_back s now line =
  s.a.l2_writebacks <- s.a.l2_writebacks + 1;
  match s.cfg.Machine.l3 with
  | Some l3p ->
      let bank = line mod l3p.Machine.n_banks in
      let bline = line / l3p.Machine.n_banks in
      if Cache_sim.probe_int s.l3.(bank) bline <> 0 then
        Cache_sim.set_state_int s.l3.(bank) ~line:bline st_m
      else begin
        let ev = Cache_sim.fill_packed s.l3.(bank) ~line:bline ~state_int:st_m in
        if ev >= 0 && ev land 3 = st_m then begin
          s.a.l3_writebacks <- s.a.l3_writebacks + 1;
          mem_write_back s now (((ev lsr 2) * l3p.Machine.n_banks) + bank)
        end
      end
  | None -> mem_write_back s now line

let fill_l2 s now core line state_int =
  let ev = Cache_sim.fill_packed s.l2s.(core) ~line ~state_int in
  if ev >= 0 then begin
    let v = ev lsr 2 in
    (* The eviction is the ONLY way a line leaves this L2 besides an
       explicit invalidation, and both funnel through [dir_remove]: the
       directory cannot retain a bit for a core that lost the line. *)
    dir_remove s v core;
    l1_invalidate s core v;
    if ev land 3 = st_m then l2_victim_write_back s now v
  end;
  dir_add s line core

let fill_l1 s core line state_int =
  let ev = Cache_sim.fill_packed s.l1s.(core) ~line ~state_int in
  if ev >= 0 && ev land 3 = st_m then begin
    (* write-back into the L2 copy (inclusion guarantees presence) *)
    s.a.l1_writebacks <- s.a.l1_writebacks + 1;
    Cache_sim.set_state_int s.l2s.(core) ~line:(ev lsr 2) st_m
  end

(* Invalidate every other core's copy (write miss / upgrade). *)
let invalidate_sharers s core line =
  let mask = dir_get s line land lnot (1 lsl core) in
  if mask <> 0 then begin
    for c = 0 to s.cfg.Machine.n_cores - 1 do
      if mask land (1 lsl c) <> 0 then begin
        Cache_sim.set_state_int s.l2s.(c) ~line 0;
        l1_invalidate s c line;
        s.a.invalidations <- s.a.invalidations + 1
      end
    done;
    dir_set s line (dir_get s line land (1 lsl core))
  end

(* Core (other than [core]) holding the line dirty; -1 when none.  The
   scan is a top-level recursion: a local [let rec] closing over the mask
   would allocate a closure on every L2 miss in classic mode. *)
let rec owner_scan l2s n_cores mask line c =
  if c >= n_cores then -1
  else if mask land (1 lsl c) <> 0 && Cache_sim.probe_int l2s.(c) line = st_m
  then c
  else owner_scan l2s n_cores mask line (c + 1)

let dirty_owner s core line =
  let mask = dir_get s line land lnot (1 lsl core) in
  if mask = 0 then -1 else owner_scan s.l2s s.cfg.Machine.n_cores mask line 0

(* Stall-attribution buckets, encoded in the low two bits of [access]'s
   packed result. *)
let b_instr = 0
let b_l2 = 1
let b_l3 = 2
let b_mem = 3

(* Resolve one memory reference.  Returns [completion_time * 4 + bucket]
   packed in an int — the per-access path allocates nothing. *)
let access s (th : thread) line write =
  let cfg = s.cfg in
  let a = s.a in
  let now = th.now in
  let core = th.core in
  a.l1_accesses <- a.l1_accesses + 1;
  let old1 = Cache_sim.access_int s.l1s.(core) ~line ~write in
  if old1 >= 0 then
    if (not write) || old1 >= st_e then begin
      a.l1_hits <- a.l1_hits + 1;
      if write && old1 = st_e then
        Cache_sim.set_state_int s.l2s.(core) ~line st_m;
      ((now + cfg.Machine.l1.Machine.latency) lsl 2) lor b_instr
    end
    else begin
      (* Write hit on a Shared line: upgrade through the coherence fabric. *)
      a.l1_hits <- a.l1_hits + 1;
      invalidate_sharers s core line;
      Cache_sim.set_state_int s.l2s.(core) ~line st_m;
      let xbar =
        match cfg.Machine.l3 with
        | Some l3p -> l3p.Machine.xbar_latency
        | None -> 4
      in
      ((now + cfg.Machine.l1.Machine.latency + (2 * xbar)) lsl 2) lor b_l2
    end
  else begin
    a.l2_accesses <- a.l2_accesses + 1;
    let t_l2 =
      now + cfg.Machine.l1.Machine.latency + cfg.Machine.l2.Machine.latency
    in
    let xbar =
      match cfg.Machine.l3 with
      | Some l3p -> l3p.Machine.xbar_latency
      | None -> 4
    in
    let old2 = Cache_sim.access_int s.l2s.(core) ~line ~write in
    if old2 >= 0 then
      if (not write) || old2 >= st_e then begin
        a.l2_hits <- a.l2_hits + 1;
        fill_l1 s core line (if write then st_m else st_s);
        (t_l2 lsl 2) lor b_l2
      end
      else begin
        a.l2_hits <- a.l2_hits + 1;
        invalidate_sharers s core line;
        Cache_sim.set_state_int s.l2s.(core) ~line st_m;
        fill_l1 s core line st_m;
        ((t_l2 + (2 * xbar)) lsl 2) lor b_l2
      end
    else begin
      (* Coherence: a dirty copy in a peer L2 is transferred cache-to-cache
         over the crossbar. *)
      let owner = dirty_owner s core line in
      if owner >= 0 then begin
        a.c2c_transfers <- a.c2c_transfers + 1;
        if write then invalidate_sharers s core line
        else begin
          Cache_sim.set_state_int s.l2s.(owner) ~line st_s;
          l1_invalidate s owner line;
          (* owner's dirty data is pushed down on the way *)
          l2_victim_write_back s now line
        end;
        let t = t_l2 + (2 * xbar) + cfg.Machine.l2.Machine.latency in
        fill_l2 s now core line (if write then st_m else st_s);
        fill_l1 s core line (if write then st_m else st_s);
        (t lsl 2) lor b_l3
      end
      else begin
        if write then invalidate_sharers s core line;
        match cfg.Machine.l3 with
        | Some l3p ->
            let bank = line mod l3p.Machine.n_banks in
            let bline = line / l3p.Machine.n_banks in
            let arrival = t_l2 + xbar in
            let start = imax arrival s.l3_free.(bank) in
            s.l3_free.(bank) <- start + l3p.Machine.bank.Machine.cycle;
            a.l3_accesses <- a.l3_accesses + 1;
            if Cache_sim.access_int s.l3.(bank) ~line:bline ~write:false >= 0
            then begin
              a.l3_hits <- a.l3_hits + 1;
              let t = start + l3p.Machine.bank.Machine.latency + xbar in
              fill_l2 s now core line (if write then st_m else st_s);
              fill_l1 s core line (if write then st_m else st_s);
              (t lsl 2) lor b_l3
            end
            else begin
              let t_tag = start + l3p.Machine.bank.Machine.latency in
              let t_mem =
                Dram_sim.access s.dram ~line ~write:false ~now:t_tag
              in
              a.mem_reads <- a.mem_reads + 1;
              let ev =
                Cache_sim.fill_packed s.l3.(bank) ~line:bline ~state_int:st_s
              in
              if ev >= 0 && ev land 3 = st_m then begin
                a.l3_writebacks <- a.l3_writebacks + 1;
                mem_write_back s now (((ev lsr 2) * l3p.Machine.n_banks) + bank)
              end;
              fill_l2 s now core line (if write then st_m else st_e);
              fill_l1 s core line (if write then st_m else st_e);
              ((t_mem + xbar) lsl 2) lor b_mem
            end
        | None ->
            let t_mem = Dram_sim.access s.dram ~line ~write:false ~now:t_l2 in
            a.mem_reads <- a.mem_reads + 1;
            fill_l2 s now core line (if write then st_m else st_e);
            fill_l1 s core line (if write then st_m else st_e);
            (t_mem lsl 2) lor b_mem
      end
    end
  end

(* The directory of the last run that finished on this domain, cleared in
   place; the next run here takes it instead of allocating one.  With the
   caches (Cache_sim's free list) it is all of a run's state that grows
   with the machine.  A domain other than the main one drops it when it
   exits. *)
let spare_directory =
  Domain.DLS.new_key (fun () ->
      let r = ref None in
      if not (Domain.is_main_domain ()) then
        Domain.at_exit (fun () -> r := None);
      r)

let take_directory () =
  let r = Domain.DLS.get spare_directory in
  match !r with
  | Some d ->
      r := None;
      d
  | None -> Cacti_util.Intmap.create ~capacity:65536 ()

let make_sim ?make_gen cfg app params =
  Workload.validate app;
  let n_threads = Machine.n_threads cfg in
  let quota = max 1 (params.total_instructions / n_threads) in
  let l1 = cfg.Machine.l1 and l2 = cfg.Machine.l2 in
  let l3_banks, l3_cfg =
    match cfg.Machine.l3 with
    | Some p -> (p.Machine.n_banks, Some p)
    | None -> (0, None)
  in
  let rng = Cacti_util.Rng.create params.seed in
  let threads =
    Array.init n_threads (fun id ->
        {
          id;
          core = id / cfg.Machine.threads_per_core;
          gen =
            (match make_gen with
            | Some f -> f ~thread_id:id
            | None ->
                Workload.gen app ~n_threads ~thread_id:id ~seed:params.seed);
          now = 0;
          instr_done = 0;
          next_barrier =
            (if app.Workload.barrier_interval > 0 then
               app.Workload.barrier_interval
             else max_int);
          next_lock =
            (if app.Workload.lock_interval > 0 then app.Workload.lock_interval
             else max_int);
          state = Running;
          barrier_arrival = 0;
        })
  in
  (* One pending event per thread: sized exactly, the heap never grows. *)
  let heap = Heap.create ~capacity:n_threads in
  Array.iter (fun th -> Heap.push heap ~time:0 ~payload:th.id) threads;
  {
    cfg;
    app;
    params;
    quota;
    l1s =
      Array.init cfg.Machine.n_cores (fun _ ->
          Cache_sim.create ~assoc:l1.Machine.assoc ~lines:l1.Machine.lines ());
    l2s =
      Array.init cfg.Machine.n_cores (fun _ ->
          Cache_sim.create ~assoc:l2.Machine.assoc ~lines:l2.Machine.lines ());
    l3 =
      (match l3_cfg with
      | Some p ->
          Array.init l3_banks (fun _ ->
              Cache_sim.create ~assoc:p.Machine.bank.Machine.assoc
                ~lines:p.Machine.bank.Machine.lines ())
      | None -> [||]);
    l3_free = Array.make (max 1 l3_banks) 0;
    dram =
      Dram_sim.create ~n_channels:cfg.Machine.mem.Machine.n_channels
        ~n_banks:cfg.Machine.mem.Machine.n_banks
        ?powerdown:cfg.Machine.mem.Machine.powerdown
        ~policy:cfg.Machine.mem.Machine.policy
        ~timing:cfg.Machine.mem.Machine.timing ();
    directory = take_directory ();
    locks_free = Array.make (max 1 app.Workload.n_locks) 0;
    rng;
    residues = Array.make n_threads 0.;
    a = make_acc ();
    stats = Stats.create ();
    threads;
    heap;
    barrier_waiting = 0;
    alive = n_threads;
  }

let release_barrier s t_release =
  Array.iter
    (fun th ->
      if th.state = At_barrier then begin
        s.a.b_barrier <- s.a.b_barrier + (t_release - th.barrier_arrival);
        th.now <- t_release;
        th.state <- Running;
        Heap.push s.heap ~time:t_release ~payload:th.id
      end)
    s.threads;
  s.barrier_waiting <- 0

let nonmem_cycles residues (th : thread) cpi n =
  let exact = (float_of_int n *. cpi) +. Array.unsafe_get residues th.id in
  let whole = int_of_float exact in
  Array.unsafe_set residues th.id (exact -. float_of_int whole);
  whole

type audit = {
  directory_population : int;
  directory_sharer_bits : int;
  l2_valid_lines : int;
  directory_backed : bool;
}

let audit_directory s =
  let population = Cacti_util.Intmap.length s.directory in
  let bits = ref 0 in
  let backed = ref true in
  Cacti_util.Intmap.iter
    (fun line mask ->
      if mask = 0 then backed := false (* set/remove contract violated *)
      else
        for c = 0 to s.cfg.Machine.n_cores - 1 do
          if mask land (1 lsl c) <> 0 then begin
            incr bits;
            if Cache_sim.probe_int s.l2s.(c) line = 0 then backed := false
          end
        done)
    s.directory;
  let l2_valid =
    Array.fold_left (fun t c -> t + Cache_sim.occupancy c) 0 s.l2s
  in
  {
    directory_population = population;
    directory_sharer_bits = !bits;
    l2_valid_lines = l2_valid;
    directory_backed = !backed;
  }

let run_sim s =
  let a = s.a in
  let params = s.params in
  let cpi = Workload.nonmem_cpi s.app in
  let mem_ratio = s.app.Workload.mem_ratio in
  (* mem_ratio < 1 (checked by Workload.validate), so the geometric draw
     never takes the p = 1 short-circuit and the log is loop-invariant. *)
  let log1mp = log (1. -. mem_ratio) in
  let finish_time = ref 0 in
  let step th =
    (* Locks and barriers due at this point. *)
    if th.instr_done >= th.next_lock && th.instr_done < s.quota then begin
      th.next_lock <- th.next_lock + s.app.Workload.lock_interval;
      let l = Cacti_util.Rng.int s.rng s.app.Workload.n_locks in
      if s.locks_free.(l) > th.now then begin
        a.b_lock <- a.b_lock + (s.locks_free.(l) - th.now);
        th.now <- s.locks_free.(l)
      end;
      s.locks_free.(l) <- th.now + s.app.Workload.lock_hold;
      a.b_instr <- a.b_instr + s.app.Workload.lock_hold;
      th.now <- th.now + s.app.Workload.lock_hold
    end;
    if th.instr_done >= th.next_barrier && th.instr_done < s.quota then begin
      th.next_barrier <- th.next_barrier + s.app.Workload.barrier_interval;
      th.state <- At_barrier;
      th.barrier_arrival <- th.now;
      s.barrier_waiting <- s.barrier_waiting + 1;
      if s.barrier_waiting = s.alive then
        release_barrier s (th.now + params.barrier_overhead);
      true (* suspended *)
    end
    else false
  in
  let rec loop () =
    let id = Heap.pop_payload s.heap in
    if id >= 0 then begin
      let th = s.threads.(id) in
      if th.state <> Running then loop ()
      else if th.instr_done >= s.quota then begin
        th.state <- Finished;
        s.alive <- s.alive - 1;
        if !finish_time < th.now then finish_time := th.now;
        (* A finished thread may be the one the barrier was waiting on —
           but equal quotas mean everyone passes the same barrier count,
           so a pending barrier can only be waiting on running threads. *)
        if s.barrier_waiting > 0 && s.barrier_waiting = s.alive then
          release_barrier s (th.now + params.barrier_overhead);
        loop ()
      end
      else begin
        (if not (step th) then begin
           (* One segment: a geometric run of non-memory instructions then
              one memory reference. *)
           let gap = Cacti_util.Rng.geometric_log1mp s.rng ~log1mp in
           let gap = imin gap (s.quota - th.instr_done - 1) in
           let c = nonmem_cycles s.residues th cpi gap in
           a.b_instr <- a.b_instr + c + 1;
           th.now <- th.now + c + 1;
           th.instr_done <- th.instr_done + gap + 1;
           a.instructions <- a.instructions + gap + 1;
           let packed_ref = Workload.next_packed th.gen in
           let line = packed_ref lsr 1 and write = packed_ref land 1 = 1 in
           let packed = access s th line write in
           let t_done = packed lsr 2 in
           let stall = t_done - th.now in
           (match packed land 3 with
           | 0 -> a.b_instr <- a.b_instr + stall
           | 1 -> a.b_l2 <- a.b_l2 + stall
           | 2 -> a.b_l3 <- a.b_l3 + stall
           | _ -> a.b_mem <- a.b_mem + stall);
           if not write then begin
             a.read_count <- a.read_count + 1;
             a.read_latency_sum <- a.read_latency_sum + stall
           end;
           th.now <- t_done;
           Heap.push s.heap ~time:th.now ~payload:th.id
         end);
        loop ()
      end
    end
  in
  loop ();
  let st = s.stats in
  flush_acc a st;
  st.Stats.exec_cycles <- !finish_time;
  st.Stats.ifetch_lines <-
    st.Stats.instructions / s.cfg.Machine.instr_per_fetch_line;
  st.Stats.dram <- Some (Dram_sim.counts s.dram);
  st

(* Hands the caches and the directory of a finished run to the next run
   on this domain; [s] must not be used afterwards. *)
let release s =
  Array.iter Cache_sim.release s.l1s;
  Array.iter Cache_sim.release s.l2s;
  Array.iter Cache_sim.release s.l3;
  Cacti_util.Intmap.clear s.directory;
  Domain.DLS.get spare_directory := Some s.directory

let run ?(params = default_params) ?make_gen cfg app =
  let s = make_sim ?make_gen cfg app params in
  let st = run_sim s in
  release s;
  st

let run_audited ?(params = default_params) cfg app =
  let s = make_sim cfg app params in
  let st = run_sim s in
  let audit = audit_directory s in
  release s;
  (st, audit)
