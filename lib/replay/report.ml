let csv_header = "seq,tid,op,addr,level,cycles,victims,reason"

let level_name = function
  | 0 -> "L1"
  | 1 -> "L2"
  | 2 -> "L3"
  | _ -> "MEM"

let victim_addr line_bytes packed = (packed lsr 2) * line_bytes
let victim_dirty packed = packed land 3 = 3

(* reason: hit = served without filling; cold = filled into invalid ways
   only; evict = at least one line was displaced. *)
let reason (o : Replayer.outcome) =
  if o.Replayer.level = 0 then "hit"
  else if
    o.Replayer.l1_victim < 0 && o.Replayer.l2_victim < 0
    && o.Replayer.l3_victim < 0
  then "cold"
  else "evict"

(* ---------------- allocation-free row encoding ----------------

   A row is assembled in a per-domain scratch buffer (sharded replay
   renders on several domains at once) and appended to the caller's
   [Buffer.t] with one blit.  Each writer takes the write position and
   returns the next one; none allocates. *)

(* Widest possible row: JSONL with three victims, every [%d] field at its
   20-character worst case ([min_int]) and every address at 16 hex digits,
   is 337 bytes. *)
let row_capacity = 512

let scratch = Domain.DLS.new_key (fun () -> Bytes.create row_capacity)

let put_char s p c =
  Bytes.unsafe_set s p c;
  p + 1

let put_string s p str =
  let n = String.length str in
  Bytes.unsafe_blit_string str 0 s p n;
  p + n

(* As [%d].  Digits come off the non-positive magnitude, so [min_int],
   whose negation overflows, needs no special case. *)
let put_dec s p n =
  let p = if n < 0 then put_char s p '-' else p in
  let m = ref (if n < 0 then n else -n) in
  let len = ref 1 and t = ref (!m / 10) in
  while !t <> 0 do
    incr len;
    t := !t / 10
  done;
  for i = p + !len - 1 downto p do
    Bytes.unsafe_set s i (Char.unsafe_chr (48 - (!m mod 10)));
    m := !m / 10
  done;
  p + !len

(* As [%x], which prints the int's 63-bit pattern unsigned ([-1] is
   [7fffffffffffffff]): [lsr] shifts in zeros, so negatives terminate. *)
let put_hex s p n =
  let len = ref 1 and t = ref (n lsr 4) in
  while !t <> 0 do
    incr len;
    t := !t lsr 4
  done;
  let v = ref n in
  for i = p + !len - 1 downto p do
    Bytes.unsafe_set s i (String.unsafe_get "0123456789abcdef" (!v land 15));
    v := !v lsr 4
  done;
  p + !len

(* One victim after [sep] (unless it is the first, i.e. nothing was
   written since [first]): [open_], the hex address, then the clean or
   dirty suffix.  Absent victims ([packed < 0]) write nothing. *)
let put_victim s ~first p ~sep ~open_ ~clean ~dirty ~line_bytes packed =
  if packed < 0 then p
  else begin
    let p = if p > first then put_char s p sep else p in
    let p = put_string s p open_ in
    let p = put_hex s p (victim_addr line_bytes packed) in
    put_string s p (if victim_dirty packed then dirty else clean)
  end

let csv_victim s ~first p open_ ~line_bytes packed =
  put_victim s ~first p ~sep:';' ~open_ ~clean:":c" ~dirty:":d" ~line_bytes
    packed

let append_csv_row b ~seq ~tid ~write ~addr ~line_bytes
    (o : Replayer.outcome) =
  let s = Domain.DLS.get scratch in
  let p = put_dec s 0 seq in
  let p = put_char s p ',' in
  let p = put_dec s p tid in
  let p = put_string s p (if write then ",W,0x" else ",R,0x") in
  let p = put_hex s p addr in
  let p = put_char s p ',' in
  let p = put_string s p (level_name o.Replayer.level) in
  let p = put_char s p ',' in
  let p = put_dec s p o.Replayer.cycles in
  let first = put_char s p ',' in
  let p = csv_victim s ~first first "L1:0x" ~line_bytes o.Replayer.l1_victim in
  let p = csv_victim s ~first p "L2:0x" ~line_bytes o.Replayer.l2_victim in
  let p = csv_victim s ~first p "L3:0x" ~line_bytes o.Replayer.l3_victim in
  let p = if p = first then put_char s p '-' else p in
  let p = put_char s p ',' in
  let p = put_string s p (reason o) in
  let p = put_char s p '\n' in
  Buffer.add_subbytes b s 0 p

let jsonl_victim s ~first p open_ ~line_bytes packed =
  put_victim s ~first p ~sep:',' ~open_ ~clean:{|","dirty":false}|}
    ~dirty:{|","dirty":true}|} ~line_bytes packed

let append_jsonl_row b ~seq ~tid ~write ~addr ~line_bytes
    (o : Replayer.outcome) =
  let s = Domain.DLS.get scratch in
  let p = put_string s 0 {|{"seq":|} in
  let p = put_dec s p seq in
  let p = put_string s p {|,"tid":|} in
  let p = put_dec s p tid in
  let p =
    put_string s p
      (if write then {|,"op":"W","addr":"0x|} else {|,"op":"R","addr":"0x|})
  in
  let p = put_hex s p addr in
  let p = put_string s p {|","level":"|} in
  let p = put_string s p (level_name o.Replayer.level) in
  let p = put_string s p {|","cycles":|} in
  let p = put_dec s p o.Replayer.cycles in
  let first = put_string s p {|,"victims":[|} in
  let p =
    jsonl_victim s ~first first {|{"level":"L1","addr":"0x|} ~line_bytes
      o.Replayer.l1_victim
  in
  let p =
    jsonl_victim s ~first p {|{"level":"L2","addr":"0x|} ~line_bytes
      o.Replayer.l2_victim
  in
  let p =
    jsonl_victim s ~first p {|{"level":"L3","addr":"0x|} ~line_bytes
      o.Replayer.l3_victim
  in
  let p = put_string s p {|],"reason":"|} in
  let p = put_string s p (reason o) in
  let p = put_string s p "\"}\n" in
  Buffer.add_subbytes b s 0 p

open Cacti_util

let level_json (lv : Replayer.level) =
  Jsonx.Obj
    [
      ("lines", Jsonx.Int lv.Replayer.lines);
      ("assoc", Jsonx.Int lv.Replayer.assoc);
      ("latency", Jsonx.Int lv.Replayer.latency);
      ("policy", Jsonx.String (Mcsim.Policy.to_string lv.Replayer.policy));
    ]

let rate num den = if den = 0 then Jsonx.Null else Jsonx.num (float_of_int num /. float_of_int den)

let summary_json ~(config : Replayer.config) (s : Replayer.summary) =
  Jsonx.Obj
    [
      ("schema", Jsonx.String "cacti-d/replay-summary/v1");
      ( "config",
        Jsonx.Obj
          [
            ("line_bytes", Jsonx.Int config.Replayer.line_bytes);
            ("n_cores", Jsonx.Int config.Replayer.n_cores);
            ("mem_latency", Jsonx.Int config.Replayer.mem_latency);
            ("l1", level_json config.Replayer.l1);
            ("l2", level_json config.Replayer.l2);
            ( "l3",
              match config.Replayer.l3 with
              | Some lv -> level_json lv
              | None -> Jsonx.Null );
          ] );
      ("accesses", Jsonx.Int s.Replayer.accesses);
      ("reads", Jsonx.Int s.Replayer.reads);
      ("writes", Jsonx.Int s.Replayer.writes);
      ("l1_hits", Jsonx.Int s.Replayer.l1_hits);
      ("l2_accesses", Jsonx.Int s.Replayer.l2_accesses);
      ("l2_hits", Jsonx.Int s.Replayer.l2_hits);
      ("l3_accesses", Jsonx.Int s.Replayer.l3_accesses);
      ("l3_hits", Jsonx.Int s.Replayer.l3_hits);
      ("mem_accesses", Jsonx.Int s.Replayer.mem_accesses);
      ("l1_evictions", Jsonx.Int s.Replayer.l1_evictions);
      ("l2_evictions", Jsonx.Int s.Replayer.l2_evictions);
      ("l3_evictions", Jsonx.Int s.Replayer.l3_evictions);
      ("writebacks", Jsonx.Int s.Replayer.writebacks);
      ("invalidations", Jsonx.Int s.Replayer.invalidations);
      ("c2c_transfers", Jsonx.Int s.Replayer.c2c_transfers);
      ("total_cycles", Jsonx.Int s.Replayer.total_cycles);
      ("l1_hit_rate", rate s.Replayer.l1_hits s.Replayer.accesses);
      ("l2_hit_rate", rate s.Replayer.l2_hits s.Replayer.l2_accesses);
      ("l3_hit_rate", rate s.Replayer.l3_hits s.Replayer.l3_accesses);
      ( "avg_cycles",
        rate s.Replayer.total_cycles s.Replayer.accesses );
    ]

let pct num den =
  if den = 0 then 0. else 100. *. float_of_int num /. float_of_int den

let summary_human (s : Replayer.summary) =
  let b = Buffer.create 256 in
  Printf.bprintf b "accesses          %d (%d reads, %d writes)\n"
    s.Replayer.accesses s.Replayer.reads s.Replayer.writes;
  Printf.bprintf b "L1 hits           %d (%.2f%%)\n" s.Replayer.l1_hits
    (pct s.Replayer.l1_hits s.Replayer.accesses);
  Printf.bprintf b "L2 hits           %d / %d (%.2f%%)\n" s.Replayer.l2_hits
    s.Replayer.l2_accesses
    (pct s.Replayer.l2_hits s.Replayer.l2_accesses);
  Printf.bprintf b "L3 hits           %d / %d (%.2f%%)\n" s.Replayer.l3_hits
    s.Replayer.l3_accesses
    (pct s.Replayer.l3_hits s.Replayer.l3_accesses);
  Printf.bprintf b "memory accesses   %d\n" s.Replayer.mem_accesses;
  Printf.bprintf b "evictions         L1 %d, L2 %d, L3 %d\n"
    s.Replayer.l1_evictions s.Replayer.l2_evictions
    s.Replayer.l3_evictions;
  Printf.bprintf b "writebacks to mem %d\n" s.Replayer.writebacks;
  if s.Replayer.invalidations > 0 || s.Replayer.c2c_transfers > 0 then
    Printf.bprintf b "coherence         %d invalidations, %d c2c\n"
      s.Replayer.invalidations s.Replayer.c2c_transfers;
  Printf.bprintf b "total cycles      %d (%.2f avg/access)\n"
    s.Replayer.total_cycles
    (if s.Replayer.accesses = 0 then 0.
     else
       float_of_int s.Replayer.total_cycles
       /. float_of_int s.Replayer.accesses);
  Buffer.contents b
