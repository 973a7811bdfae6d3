type policy = Open_page | Closed_page

type timing = {
  t_rcd : int;
  t_cas : int;
  t_rp : int;
  t_rc : int;
  t_rrd : int;
  t_faw : int;
  t_wtr : int;
  t_refi : int;
  t_rfc : int;
  t_burst : int;
  t_ctrl : int;
}

let basic_timing ~t_rcd ~t_cas ~t_rp ~t_rc ~t_rrd ~t_burst ~t_ctrl =
  {
    t_rcd;
    t_cas;
    t_rp;
    t_rc;
    t_rrd;
    t_faw = 0;
    t_wtr = 0;
    t_refi = 0;
    t_rfc = 0;
    t_burst;
    t_ctrl;
  }

type powerdown = { idle_threshold : int; wake_penalty : int }

type counts = {
  mutable activates : int;
  mutable reads : int;
  mutable writes : int;
  mutable precharges : int;
  mutable row_hits : int;
  mutable busy_cycles : int;
  mutable powerdown_cycles : int;
  mutable wakeups : int;
}

type t = {
  n_channels : int;
  n_banks : int;
  rows_per_bank : int;
  policy : policy;
  timing : timing;
  powerdown : powerdown option;
  open_row : int array;  (** per (channel, bank); -1 = precharged *)
  bank_free : int array;
  last_act : int array;  (** per channel: most recent ACTIVATE *)
  act_window : int array;  (** per channel: 4 most recent ACT times *)
  last_write_done : int array;  (** per channel, for tWTR *)
  bus_free : int array;
  ch_last_busy : int array;  (** per channel: last command activity *)
  counts : counts;
}

let create ?(n_channels = 2) ?(n_banks = 8) ?(rows_per_bank = 65536)
    ?powerdown ~policy ~timing () =
  {
    n_channels;
    n_banks;
    rows_per_bank;
    policy;
    timing;
    powerdown;
    open_row = Array.make (n_channels * n_banks) (-1);
    bank_free = Array.make (n_channels * n_banks) 0;
    last_act = Array.make n_channels 0;
    act_window = Array.make (n_channels * 4) min_int;
    last_write_done = Array.make n_channels 0;
    bus_free = Array.make n_channels 0;
    ch_last_busy = Array.make n_channels 0;
    counts =
      {
        activates = 0;
        reads = 0;
        writes = 0;
        precharges = 0;
        row_hits = 0;
        busy_cycles = 0;
        powerdown_cycles = 0;
        wakeups = 0;
      };
  }

let counts t = t.counts

(* Line-address interleaving: low bits pick the channel, next the bank,
   higher bits the row (consecutive lines within a row map to the same
   open page — 8 KB pages hold 128 lines). *)
let lines_per_row = 128

(* Int-typed max: the polymorphic stdlib [max] goes through the generic
   comparison on every call; this path runs once per DRAM access. *)
let imax (a : int) b = if a >= b then a else b

(* Push [start] past any refresh blackout window. *)
let rec after_refresh tm start =
  if tm.t_refi <= 0 then start
  else
    let into = start mod tm.t_refi in
    if into < tm.t_rfc then after_refresh tm (start - into + tm.t_rfc)
    else start

(* Rolling four-activate window. *)
let respect_faw t ch start =
  if t.timing.t_faw <= 0 then start
  else
    let base = ch * 4 in
    let oldest = ref max_int in
    for i = 0 to 3 do
      if t.act_window.(base + i) < !oldest then oldest := t.act_window.(base + i)
    done;
    if !oldest = min_int then start else imax start (!oldest + t.timing.t_faw)

let record_act t ch time =
  let base = ch * 4 in
  (* replace the oldest entry *)
  let oldest_i = ref 0 in
  for i = 1 to 3 do
    if t.act_window.(base + i) < t.act_window.(base + !oldest_i) then
      oldest_i := i
  done;
  t.act_window.(base + !oldest_i) <- time

let access t ~line ~write ~now =
  let c = t.counts in
  let ch = line mod t.n_channels in
  let within = line / t.n_channels in
  let bank = within / lines_per_row mod t.n_banks in
  let row = within / lines_per_row / t.n_banks mod t.rows_per_bank in
  let bi = (ch * t.n_banks) + bank in
  let tm = t.timing in
  let was_hit = t.open_row.(bi) = row in
  let start = imax (now + tm.t_ctrl) t.bank_free.(bi) in
  (* Power-down wake-up. *)
  let start =
    match t.powerdown with
    | Some pd when start - t.ch_last_busy.(ch) > pd.idle_threshold ->
        c.powerdown_cycles <-
          c.powerdown_cycles
          + (start - t.ch_last_busy.(ch) - pd.idle_threshold);
        c.wakeups <- c.wakeups + 1;
        start + pd.wake_penalty
    | _ -> start
  in
  let start = after_refresh tm start in
  (* Write-to-read bus turnaround. *)
  let start =
    if (not write) && tm.t_wtr > 0 then
      imax start t.last_write_done.(ch)
    else start
  in
  let start, cmd_done =
    if was_hit then begin
      c.row_hits <- c.row_hits + 1;
      (start, start + tm.t_cas)
    end
    else begin
      (* Respect tRRD and tFAW between activates on the channel. *)
      let start = imax start (t.last_act.(ch) + tm.t_rrd) in
      let start = respect_faw t ch start in
      let start, after_pre =
        if t.open_row.(bi) >= 0 then begin
          c.precharges <- c.precharges + 1;
          (start, start + tm.t_rp)
        end
        else (start, start)
      in
      c.activates <- c.activates + 1;
      t.last_act.(ch) <- after_pre;
      record_act t ch after_pre;
      let after_act = after_pre + tm.t_rcd in
      t.open_row.(bi) <- row;
      (start, after_act + tm.t_cas)
    end
  in
  if write then c.writes <- c.writes + 1 else c.reads <- c.reads + 1;
  (* Data transfer occupies the channel bus. *)
  let xfer_start = imax cmd_done t.bus_free.(ch) in
  let finish = xfer_start + tm.t_burst in
  t.bus_free.(ch) <- finish;
  c.busy_cycles <- c.busy_cycles + tm.t_burst;
  if write then t.last_write_done.(ch) <- finish + tm.t_wtr;
  (* Bank occupancy: row cycle for a miss, burst-rate for a hit. *)
  let occupancy =
    if was_hit then imax tm.t_burst (tm.t_cas / 2) else tm.t_rc
  in
  t.bank_free.(bi) <- start + occupancy;
  (match t.policy with
  | Open_page -> ()
  | Closed_page ->
      c.precharges <- c.precharges + 1;
      t.open_row.(bi) <- -1;
      t.bank_free.(bi) <- imax t.bank_free.(bi) (cmd_done + tm.t_rp));
  t.ch_last_busy.(ch) <- imax t.ch_last_busy.(ch) finish;
  finish
