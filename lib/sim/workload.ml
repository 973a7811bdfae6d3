type pattern = Stream | Random_access | Random_burst of int | Strided of int
type sharing = Private_slice | Shared

type region = {
  rname : string;
  size_bytes : int;
  pattern : pattern;
  sharing : sharing;
  weight : float;
  wr_scale : float;
}

type app = {
  name : string;
  mem_ratio : float;
  fp_ratio : float;
  write_ratio : float;
  regions : region list;
  barrier_interval : int;
  lock_interval : int;
  lock_hold : int;
  n_locks : int;
}

let validate a =
  let total = List.fold_left (fun acc r -> acc +. r.weight) 0. a.regions in
  if Float.abs (total -. 1.0) > 1e-6 then
    invalid_arg (a.name ^ ": region weights must sum to 1");
  if a.mem_ratio <= 0. || a.mem_ratio >= 1. then
    invalid_arg (a.name ^ ": mem_ratio out of (0,1)");
  if a.fp_ratio < 0. || a.fp_ratio +. a.mem_ratio > 1. then
    invalid_arg (a.name ^ ": fp_ratio inconsistent with mem_ratio");
  if a.write_ratio < 0. || a.write_ratio > 1. then
    invalid_arg (a.name ^ ": write_ratio out of [0,1]");
  List.iter
    (fun r ->
      if r.size_bytes < 4096 then
        invalid_arg (a.name ^ "." ^ r.rname ^ ": region too small");
      if r.wr_scale < 0. then
        invalid_arg (a.name ^ "." ^ r.rname ^ ": negative wr_scale"))
    a.regions

let nonmem_cpi a =
  let nonmem = 1. -. a.mem_ratio in
  let fp_frac = a.fp_ratio /. nonmem in
  (fp_frac *. 1.) +. ((1. -. fp_frac) *. 4.)

let words_per_line = 8
let bytes_per_word = 8

type region_state = {
  region : region;
  base_line : int;  (** start of the region in global line space *)
  slice_lines : int;  (** lines visible to this thread *)
  slice_base : int;  (** first line of this thread's slice *)
  wr_prob : float;  (** clamped write probability, precomputed *)
  mutable cursor_word : int;  (** word offset within the slice *)
  mutable burst_left : int;  (** remaining words of the current burst *)
}

type synth = {
  app : app;
  rng : Cacti_util.Rng.t;
  states : region_state array;
  cum_bits : int array;
      (** cumulative region weights as 53-bit integer thresholds:
          [cum_bits.(i) = floor (cum_weight_i * 2^53)], so region choice
          compares the raw {!Cacti_util.Rng.bits53} draw against ints —
          exactly equivalent to comparing the float draw against the
          cumulative weights (u = bits/2^53 exactly, and scaling a float
          by 2^53 is exact), but allocation-free *)
}

type gen =
  | Synthetic of synth
  | Replay of { refs : int array; mutable pos : int }

let gen a ~n_threads ~thread_id ~seed =
  validate a;
  let rng = Cacti_util.Rng.create (Int64.add seed (Int64.of_int (thread_id * 7919))) in
  let base = ref 0 in
  let states =
    a.regions
    |> List.map (fun r ->
           let region_lines = max n_threads (r.size_bytes / 64) in
           let base_line = !base in
           base := !base + region_lines + 1024 (* guard gap *);
           let slice_lines, slice_base =
             match r.sharing with
             | Shared -> (region_lines, base_line)
             | Private_slice ->
                 let per = max 1 (region_lines / n_threads) in
                 (per, base_line + (thread_id * per))
           in
           {
             region = r;
             base_line;
             slice_lines;
             slice_base;
             wr_prob =
               Cacti_util.Floatx.clamp ~lo:0. ~hi:1.
                 (a.write_ratio *. r.wr_scale);
             (* Streams start phase-shifted: shared streams are spread
                evenly (threads cooperatively cover the region, like a
                block-partitioned OpenMP loop); private slices get an
                arbitrary small phase. *)
             cursor_word =
               (match r.sharing with
               | Shared ->
                   slice_lines * words_per_line * thread_id / n_threads
               | Private_slice ->
                   thread_id * 131 mod (slice_lines * words_per_line));
             burst_left = 0;
           })
    |> Array.of_list
  in
  let cum = Array.make (Array.length states) 0 in
  let acc = ref 0. in
  Array.iteri
    (fun i st ->
      acc := !acc +. st.region.weight;
      cum.(i) <- int_of_float (Float.floor (!acc *. 9007199254740992.0)))
    states;
  Synthetic { app = a; rng; states; cum_bits = cum }

let replay refs =
  if Array.length refs = 0 then invalid_arg "Workload.replay: no references";
  Replay { refs; pos = 0 }

let pick_region g =
  let bits = Cacti_util.Rng.bits53 g.rng in
  let cum = g.cum_bits in
  let n = Array.length cum in
  let i = ref 0 in
  while !i < n - 1 && bits > Array.unsafe_get cum !i do
    incr i
  done;
  g.states.(!i)

let next_synth g =
  let st = pick_region g in
  let line =
    match st.region.pattern with
    | Stream ->
        let w = st.cursor_word in
        st.cursor_word <-
          (if w + 1 >= st.slice_lines * words_per_line then 0 else w + 1);
        st.slice_base + (w / words_per_line)
    | Random_access ->
        st.slice_base + Cacti_util.Rng.int g.rng st.slice_lines
    | Random_burst burst ->
        if st.burst_left = 0 then begin
          st.cursor_word <-
            Cacti_util.Rng.int g.rng (st.slice_lines * words_per_line);
          st.burst_left <- max 1 burst
        end;
        let w = st.cursor_word in
        st.burst_left <- st.burst_left - 1;
        st.cursor_word <-
          (if w + 1 >= st.slice_lines * words_per_line then 0 else w + 1);
        st.slice_base + (w / words_per_line)
    | Strided stride_words ->
        let w = st.cursor_word in
        st.cursor_word <-
          (w + stride_words) mod (st.slice_lines * words_per_line);
        st.slice_base + (w / words_per_line)
  in
  ignore bytes_per_word;
  let write = Cacti_util.Rng.bernoulli g.rng st.wr_prob in
  (line lsl 1) lor (if write then 1 else 0)

let next_packed = function
  | Synthetic g -> next_synth g
  | Replay r ->
      let i = r.pos in
      r.pos <- (if i + 1 = Array.length r.refs then 0 else i + 1);
      Array.unsafe_get r.refs i

let next g =
  let p = next_packed g in
  (p lsr 1, p land 1 = 1)
