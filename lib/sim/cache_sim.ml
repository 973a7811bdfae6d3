(* One word per way: [line * 4 + state]; -1 = invalid.  Packing the tag and
   the MESI state into one array halves the memory touched per lookup and
   keeps the whole access path free of allocation (the previous [Bytes]
   state plane cost a [Char.code]/[Char.chr] pair per touch). *)
type t = {
  assoc : int;
  sets : int;
  set_mask : int;
  ways : int array;  (** packed line/state per way; -1 = invalid *)
  stamps : int array;
      (** per-way policy metadata: LRU recency stamp / QLRU age / MRU bit;
          unused by Tree-PLRU.  Stale on invalid ways — every policy reads
          it only for valid ways. *)
  setmeta : int array;
      (** per-set policy metadata: Tree-PLRU direction bits (bit index =
          heap node index, 1-based) / QLRU R1 round-robin pointer *)
  kind : int;  (** [Policy.kind_int policy], hoisted for dispatch *)
  q_h2 : int;
  q_h3 : int;
  q_m : int;
  q_r : int;
  q_u : int;
  mutable clock : int;
}

let invalid = -1
let pack line state = (line lsl 2) lor state
let state_int_of w = w land 3

let set_count ~assoc ~lines =
  if lines <= 0 || assoc <= 0 then invalid_arg "Cache_sim.create";
  if lines mod assoc <> 0 then
    invalid_arg "Cache_sim.create: lines not divisible by assoc";
  let sets_raw = lines / assoc in
  (* Round the set count DOWN to a power of two ([create] widens the
     associativity to preserve capacity). *)
  if Cacti_util.Floatx.is_pow2 sets_raw then sets_raw
  else Cacti_util.Floatx.pow2_ge sets_raw / 2

(* ---------------- Per-domain free list ----------------

   The state arrays of released caches, kept for the next [create] on the
   same domain: a study cell's caches are tens of MB that would otherwise
   be garbage after every cell.  [arrays.(0 .. n-1)] are free, unordered;
   taking and returning swap within [arrays] and allocate nothing, except
   that [arrays] doubles when a domain first holds more free arrays than
   it has room for.  A domain other than the main one drops its list when
   it exits. *)
type free_list = { mutable arrays : int array array; mutable n : int }

let free_key =
  Domain.DLS.new_key (fun () ->
      let fl = { arrays = Array.make 16 [||]; n = 0 } in
      if not (Domain.is_main_domain ()) then
        Domain.at_exit (fun () ->
            fl.arrays <- [||];
            fl.n <- 0);
      fl)

let remove fl i =
  let a = fl.arrays.(i) in
  fl.n <- fl.n - 1;
  fl.arrays.(i) <- fl.arrays.(fl.n);
  fl.arrays.(fl.n) <- [||];
  a

(* The smallest free array of at least [len] ints, its first [len] set to
   [v] when [reset] (else as its last owner left them).  When none fits, a
   new array of [v]s replaces the largest free one, so a domain never owns
   more arrays than it once had in use at the same time. *)
let take ~reset len v =
  let fl = Domain.DLS.get free_key in
  let best = ref (-1) and largest = ref (-1) in
  for i = 0 to fl.n - 1 do
    let l = Array.length fl.arrays.(i) in
    if l >= len && (!best < 0 || l < Array.length fl.arrays.(!best)) then
      best := i;
    if !largest < 0 || l > Array.length fl.arrays.(!largest) then largest := i
  done;
  if !best >= 0 then begin
    let a = remove fl !best in
    if reset then Array.fill a 0 len v;
    a
  end
  else begin
    if !largest >= 0 then ignore (remove fl !largest : int array);
    Array.make len v
  end

let give a =
  let fl = Domain.DLS.get free_key in
  if fl.n = Array.length fl.arrays then begin
    let grown = Array.make (Int.max 16 (2 * fl.n)) [||] in
    Array.blit fl.arrays 0 grown 0 fl.n;
    fl.arrays <- grown
  end;
  fl.arrays.(fl.n) <- a;
  fl.n <- fl.n + 1

let release t =
  give t.ways;
  give t.stamps;
  give t.setmeta

(* A Tree-PLRU set word holds node bits 1 .. ways - 1 (see below): 32
   ways use bits 1..31, and 64 would need bit 63, which an int lacks. *)
let plru_max_ways = 32

let create ?(assoc = 8) ?(policy = Policy.Lru) ~lines () =
  let sets = set_count ~assoc ~lines in
  let assoc = lines / sets in
  let kind = Policy.kind_int policy in
  if kind = 1 && not (Cacti_util.Floatx.is_pow2 assoc) then
    invalid_arg
      (Printf.sprintf
         "Cache_sim.create: Tree-PLRU needs a power-of-two associativity \
          (got %d)" assoc);
  if kind = 1 && assoc > plru_max_ways then
    invalid_arg
      (Printf.sprintf
         "Cache_sim.create: Tree-PLRU supports at most %d ways (got %d)"
         plru_max_ways assoc);
  let q_h2, q_h3, q_m, q_r, q_u = Policy.qlru_params policy in
  (* Only the used prefix of a taken array is reset; [stamps] is not,
     since every policy reads a way's stamp only while the way is valid
     and writes it when the way is filled.  Fresh arrays are allocated in
     the order the record literal allocated them (last field first): with
     [ways] first, a process that created many caches and never released
     them peaked 3.4 MB higher. *)
  let setmeta = take ~reset:true sets 0 in
  let stamps = take ~reset:false (sets * assoc) 0 in
  let ways = take ~reset:true (sets * assoc) invalid in
  {
    assoc;
    sets;
    set_mask = sets - 1;
    ways;
    stamps;
    setmeta;
    kind;
    q_h2;
    q_h3;
    q_m;
    q_r;
    q_u;
    clock = 0;
  }


let base t line = (line land t.set_mask) * t.assoc

(* Top-level recursion on purpose: a local [let rec] capturing [ways]/
   [line] would be closure-converted and allocate on every lookup in
   classic (non-flambda) mode. *)
let rec find_way ways line i last =
  if i > last then -1
  else if Array.unsafe_get ways i lsr 2 = line then i
  else find_way ways line (i + 1) last

let find t line =
  let b = base t line in
  find_way t.ways line b (b + t.assoc - 1)

(* [find] only returns -1 or an in-bounds way index, so the accessors below
   index [ways]/[stamps] unsafely at it (this path runs once per replayed
   access per level). *)
let probe_int t line =
  let i = find t line in
  if i < 0 then 0 else state_int_of (Array.unsafe_get t.ways i)
(* ---------------- LRU (kind 0) ----------------

   [stamps.(i)] is the clock value of way [i]'s last fill or hit; every
   fill and hit takes a fresh value, so the stamps of valid ways are
   distinct. *)

(* The leftmost way with the smallest stamp, in a full set. *)
let lru_victim t b last =
  let stamps = t.stamps in
  let v = ref b in
  for j = b + 1 to last do
    if Array.unsafe_get stamps j < Array.unsafe_get stamps !v then v := j
  done;
  !v

(* ---------------- Tree-PLRU (kind 1) ----------------

   [setmeta.(set)] holds one direction bit per internal node of a balanced
   binary tree over the ways; the bit's position is the node's 1-based heap
   index (root = 1, children of [n] = [2n], [2n+1]).  Bit value 0 steers the
   victim walk left, 1 right. *)

(* Touching way [rel] of an [assoc]-way tree points its root path away
   from it: the set word becomes [(m land keep) lor set], with the pair
   at [2 * (assoc - 1 + rel)] (the trees of 1, 2, 4, ... 32 ways lie one
   after another). *)
let plru_masks =
  let tbl = Array.make (2 * ((2 * plru_max_ways) - 1)) 0 in
  let assoc = ref 1 and depth = ref 0 in
  while !assoc <= plru_max_ways do
    for rel = 0 to !assoc - 1 do
      let keep = ref (-1) and set = ref 0 and n = ref 1 in
      for lvl = !depth - 1 downto 0 do
        let side = (rel lsr lvl) land 1 in
        keep := !keep land lnot (1 lsl !n);
        if side = 0 then set := !set lor (1 lsl !n);
        n := (2 * !n) + side
      done;
      tbl.(2 * (!assoc - 1 + rel)) <- !keep;
      tbl.((2 * (!assoc - 1 + rel)) + 1) <- !set
    done;
    assoc := 2 * !assoc;
    incr depth
  done;
  tbl

let plru_touch t set rel =
  let j = 2 * (t.assoc - 1 + rel) in
  Array.unsafe_set t.setmeta set
    ((Array.unsafe_get t.setmeta set land Array.unsafe_get plru_masks j)
    lor Array.unsafe_get plru_masks (j + 1))

let plru_victim t set =
  let m = t.setmeta.(set) in
  let n = ref 1 in
  while !n < t.assoc do
    n := (2 * !n) + ((m lsr !n) land 1)
  done;
  !n - t.assoc

(* ---------------- QLRU (kind 2) ----------------

   [stamps.(i)] is the 2-bit age of a valid way.  See Policy's doc for the
   H/M/R/U parameter semantics. *)

(* Age every valid way except [skip] by one, saturating at 3 (the U1/U2
   eager-aging step). *)
let qlru_age_others t b last skip =
  let ways = t.ways and stamps = t.stamps in
  for j = b to last do
    if j <> skip && Array.unsafe_get ways j >= 0 then begin
      let a = Array.unsafe_get stamps j in
      if a < 3 then Array.unsafe_set stamps j (a + 1)
    end
  done

let qlru_hit t b last i =
  let a = Array.unsafe_get t.stamps i in
  Array.unsafe_set t.stamps i
    (if a <= 1 then 0 else if a = 2 then t.q_h2 else t.q_h3);
  if t.q_u = 2 then qlru_age_others t b last i

(* Victim in a full set: raise all ages by the same amount so the oldest
   reaches 3, then pick per the R variant. *)
let qlru_victim t set b last =
  let stamps = t.stamps in
  let maxage = ref 0 in
  for j = b to last do
    if Array.unsafe_get stamps j > !maxage then
      maxage := Array.unsafe_get stamps j
  done;
  if !maxage < 3 then begin
    let bump = 3 - !maxage in
    for j = b to last do
      Array.unsafe_set stamps j (Array.unsafe_get stamps j + bump)
    done
  end;
  if t.q_r = 0 then begin
    let v = ref b in
    while stamps.(!v) <> 3 do incr v done;
    !v
  end
  else begin
    (* R1: cyclic scan from the per-set pointer; advance it past the
       victim. *)
    let p = t.setmeta.(set) in
    let v = ref (-1) in
    let k = ref 0 in
    while !v < 0 do
      let j = b + ((p + !k) mod t.assoc) in
      if stamps.(j) = 3 then v := j else incr k;
    done;
    t.setmeta.(set) <- (!v - b + 1) mod t.assoc;
    !v
  end

let qlru_insert t b last i =
  Array.unsafe_set t.stamps i t.q_m;
  if t.q_u >= 1 then qlru_age_others t b last i

(* ---------------- MRU / MRU_N (kinds 3, 4) ----------------

   [stamps.(i)] is a one-bit "recently used" flag on valid ways. *)

(* Set way [i]'s bit; when that saturates the set (every valid way marked),
   clear every other way's bit. *)
let mru_mark_and_reset t b last i =
  let ways = t.ways and stamps = t.stamps in
  stamps.(i) <- 1;
  let saturated = ref true in
  for j = b to last do
    if Array.unsafe_get ways j >= 0 && Array.unsafe_get stamps j = 0 then
      saturated := false
  done;
  if !saturated then
    for j = b to last do
      if j <> i then Array.unsafe_set stamps j 0
    done

(* Leftmost valid way with a clear bit; -1 when every bit is set (possible
   only under MRU_N, whose hits never reset). *)
let mru_victim t b last =
  let ways = t.ways and stamps = t.stamps in
  let v = ref (-1) in
  let j = ref b in
  while !v < 0 && !j <= last do
    if Array.unsafe_get ways !j >= 0 && Array.unsafe_get stamps !j = 0 then
      v := !j
    else incr j
  done;
  !v

(* Unboxed access: -1 on miss, else the PRE-access state as an int
   (0=I unused, 1=S, 2=E, 3=M).  Updates recency; a write upgrades to M. *)
let access_int t ~line ~write =
  let i = find t line in
  if i < 0 then -1
  else begin
    (match t.kind with
    | 0 ->
        t.clock <- t.clock + 1;
        Array.unsafe_set t.stamps i t.clock
    | 1 ->
        let set = line land t.set_mask in
        plru_touch t set (i - (set * t.assoc))
    | 2 ->
        let b = base t line in
        qlru_hit t b (b + t.assoc - 1) i
    | 3 ->
        let b = base t line in
        mru_mark_and_reset t b (b + t.assoc - 1) i
    | _ -> Array.unsafe_set t.stamps i 1);
    let w = Array.unsafe_get t.ways i in
    let s = state_int_of w in
    if write && s <> 3 then Array.unsafe_set t.ways i (pack line 3);
    s
  end

(* Leftmost invalid way in [i .. last], or -1. *)
let rec first_invalid ways i last =
  if i > last then -1
  else if Array.unsafe_get ways i < 0 then i
  else first_invalid ways (i + 1) last

(* Unboxed fill: allocates [line] in [state] (an int), returning -1 when a
   free way was used, else the packed [victim_line * 4 + victim_state].
   The line must not already be present (the engine guarantees it: a fill
   only follows a miss). *)
let fill_packed t ~line ~state_int =
  let b = base t line in
  let ways = t.ways and stamps = t.stamps in
  let last = b + t.assoc - 1 in
  (* Every policy fills the leftmost invalid way first; the policy
     proper only chooses among valid lines of a full set. *)
  let i =
    match first_invalid ways b last with
    | -1 -> (
        let set = line land t.set_mask in
        match t.kind with
        | 0 -> lru_victim t b last
        | 1 -> b + plru_victim t set
        | 2 -> qlru_victim t set b last
        | _ -> (
            match mru_victim t b last with
            | -1 ->
                (* MRU_N with every bit set: clear the set, evict way 0. *)
                for j = b to last do
                  Array.unsafe_set stamps j 0
                done;
                b
            | v -> v))
    | inv -> inv
  in
  let evicted = Array.unsafe_get ways i in
  Array.unsafe_set ways i (pack line state_int);
  (match t.kind with
  | 0 ->
      t.clock <- t.clock + 1;
      Array.unsafe_set stamps i t.clock
  | 1 -> plru_touch t (line land t.set_mask) (i - b)
  | 2 -> qlru_insert t b last i
  | _ -> mru_mark_and_reset t b last i);
  evicted

let set_state_int t ~line s =
  let i = find t line in
  if i >= 0 then
    Array.unsafe_set t.ways i (if s = 0 then invalid else pack line s)

let occupancy t =
  let n = ref 0 in
  for i = 0 to (t.sets * t.assoc) - 1 do
    if t.ways.(i) >= 0 then incr n
  done;
  !n
