(* The Printf-based per-access row renderers that [Mcreplay.Report] used
   before its allocation-free encoder, kept verbatim as the byte-level
   reference: the differential property in test_replay.ml compares whole
   CSV and JSONL rows of the two over random outcomes and the full int
   range. *)

open Mcreplay

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

let append_victims b ~line_bytes (o : Replayer.outcome) =
  let any = ref false in
  let one lvl packed =
    if packed >= 0 then begin
      if !any then Buffer.add_char b ';';
      any := true;
      Printf.bprintf b "%s:0x%x:%c" lvl
        (victim_addr line_bytes packed)
        (if victim_dirty packed then 'd' else 'c')
    end
  in
  one "L1" o.Replayer.l1_victim;
  one "L2" o.Replayer.l2_victim;
  one "L3" o.Replayer.l3_victim;
  if not !any then Buffer.add_char b '-'

let append_csv_row b ~seq ~tid ~write ~addr ~line_bytes
    (o : Replayer.outcome) =
  Printf.bprintf b "%d,%d,%c,0x%x,%s,%d," seq tid
    (if write then 'W' else 'R')
    addr
    (level_name o.Replayer.level)
    o.Replayer.cycles;
  append_victims b ~line_bytes o;
  Buffer.add_char b ',';
  Buffer.add_string b (reason o);
  Buffer.add_char b '\n'

let append_jsonl_row b ~seq ~tid ~write ~addr ~line_bytes
    (o : Replayer.outcome) =
  Printf.bprintf b
    {|{"seq":%d,"tid":%d,"op":"%c","addr":"0x%x","level":"%s","cycles":%d,"victims":[|}
    seq tid
    (if write then 'W' else 'R')
    addr
    (level_name o.Replayer.level)
    o.Replayer.cycles;
  let any = ref false in
  let one lvl packed =
    if packed >= 0 then begin
      if !any then Buffer.add_char b ',';
      any := true;
      Printf.bprintf b {|{"level":"%s","addr":"0x%x","dirty":%b}|} lvl
        (victim_addr line_bytes packed)
        (victim_dirty packed)
    end
  in
  one "L1" o.Replayer.l1_victim;
  one "L2" o.Replayer.l2_victim;
  one "L3" o.Replayer.l3_victim;
  Printf.bprintf b {|],"reason":"%s"}|} (reason o);
  Buffer.add_char b '\n'
