(* Measurement helpers shared by the workloads: the clock, order
   statistics, the tail rule, peak-RSS parsing, the chunked output digest,
   in-memory spans and the pass-differencing split.  Everything here is
   pure or reads only this process's own state, so it is unit-tested in
   test_perfbench.ml. *)

(* CLOCK_MONOTONIC in nanoseconds.  A warm solve request takes ~40 us, so
   a microsecond wall clock (Unix.gettimeofday) is too coarse. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

let s_of_ns ns = float_of_int ns *. 1e-9

(* ---------------------------- vectors -------------------------------- *)

module Fvec = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 256 0.; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let a = Array.make (2 * v.n) 0. in
      Array.blit v.a 0 a 0 v.n;
      v.a <- a
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let length v = v.n
  let to_array v = Array.sub v.a 0 v.n
  let sum v = Array.fold_left ( +. ) 0. (to_array v)
end

(* ------------------------ order statistics --------------------------- *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

let median a =
  let n = Array.length a in
  if n = 0 then invalid_arg "median: empty";
  let s = sorted a in
  if n land 1 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

let median_list l = median (Array.of_list l)

(* Nearest rank (1-based) of percentile [p] among [n] values, computed in
   integer per-mille so that p99.9 of 10000 is exactly rank 9990. *)
let rank n p =
  let permille = int_of_float (Float.round (p *. 10.)) in
  max 1 (((permille * n) + 999) / 1000)

let percentile_sorted s p = s.(rank (Array.length s) p - 1)

(* The tail is the highest percentile of this ladder with at least
   [min_beyond] ops strictly beyond its nearest rank.  The rungs are far
   apart on purpose: each workload's op count sits well inside one band
   (20-39 ops: p50, 40-99: p75, 100-999: p90, 1000-9999: p99, more:
   p99.9), so run-to-run noise in the op count never moves the tail to
   another percentile. *)
let ladder = [ 99.9; 99.; 90.; 75.; 50. ]
let min_beyond = 10

let tail_percentile n =
  List.find_opt (fun p -> n - rank n p >= min_beyond) ladder

(* [Some (p, value)], or [None] when fewer than [min_beyond + 10] ops ran. *)
let tail a =
  match tail_percentile (Array.length a) with
  | None -> None
  | Some p -> Some (p, percentile_sorted (sorted a) p)

(* --------------------------- peak RSS -------------------------------- *)

(* VmHWM from the text of /proc/<pid>/status, in MB (MiB). *)
let parse_vmhwm status =
  String.split_on_char '\n' status
  |> List.find_map (fun line ->
         match String.index_opt line ':' with
         | Some i when String.sub line 0 i = "VmHWM" -> (
             let rest = String.sub line (i + 1) (String.length line - i - 1) in
             match
               String.split_on_char ' ' rest
               |> List.filter (fun w -> w <> "" && w <> "\t")
               |> List.map String.trim
             with
             | [ kb; "kB" ] -> (
                 match int_of_string_opt kb with
                 | Some kb -> Some (float_of_int kb /. 1024.)
                 | None -> None)
             | _ -> None)
         | _ -> None)

let read_file path =
  In_channel.with_open_bin path In_channel.input_all

let peak_rss_mb () =
  match parse_vmhwm (read_file "/proc/self/status") with
  | Some mb -> mb
  | None -> failwith "VmHWM missing from /proc/self/status"

(* ----------------------- chunked output digest ----------------------- *)

(* MD5 over a byte stream that is independent of how the stream was cut
   into writes: bytes are regrouped into fixed 1 MiB chunks, each chunk is
   hashed, and the chunk hashes are chained.  The replayer's own slab size
   can change without changing a blessed digest. *)
module Stream_digest = struct
  let chunk = 1 lsl 20

  type t = { buf : Buffer.t; mutable chain : string; mutable bytes : int }

  let create () = { buf = Buffer.create chunk; chain = ""; bytes = 0 }

  let flush_chunk d =
    d.chain <- Digest.string (d.chain ^ Digest.string (Buffer.contents d.buf));
    Buffer.clear d.buf

  let add d s =
    d.bytes <- d.bytes + String.length s;
    let len = String.length s in
    let pos = ref 0 in
    while !pos < len do
      let take = min (len - !pos) (chunk - Buffer.length d.buf) in
      Buffer.add_substring d.buf s !pos take;
      pos := !pos + take;
      if Buffer.length d.buf = chunk then flush_chunk d
    done

  let finish d =
    if Buffer.length d.buf > 0 then flush_chunk d;
    Digest.to_hex (Digest.string (d.chain ^ string_of_int d.bytes))
end

(* ------------------------------ spans -------------------------------- *)

(* Spans recorded by the traced run around calls into each layer.  They
   stay in memory and are written out when the run ends.  A span's self
   time is its duration minus the durations of its direct children. *)
module Spans = struct
  type span = {
    name : string;
    op : int;
    parent : int;  (** index of the enclosing span, -1 at the top *)
    start_ns : int;
    mutable stop_ns : int;
  }

  type t = {
    mutable all : span array;
    mutable n : int;
    mutable open_ : int list;
  }

  let create () = { all = [||]; n = 0; open_ = [] }

  let push t s =
    if t.n = Array.length t.all then begin
      let a = Array.make (max 1024 (2 * t.n)) s in
      Array.blit t.all 0 a 0 t.n;
      t.all <- a
    end;
    t.all.(t.n) <- s;
    t.n <- t.n + 1

  let enter t name ~op =
    let parent = match t.open_ with i :: _ -> i | [] -> -1 in
    let i = t.n in
    push t { name; op; parent; start_ns = now_ns (); stop_ns = -1 };
    t.open_ <- i :: t.open_;
    i

  let leave t i =
    t.all.(i).stop_ns <- now_ns ();
    match t.open_ with
    | j :: rest when j = i -> t.open_ <- rest
    | _ -> invalid_arg "Spans.leave: not the innermost open span"

  let with_span t name ~op f =
    let i = enter t name ~op in
    match f () with
    | v ->
        leave t i;
        v
    | exception e ->
        leave t i;
        raise e

  let duration s = s.stop_ns - s.start_ns

  (* Self time per span name, in seconds, over spans [from .. n-1]. *)
  let self_times ?(from = 0) t =
    let child = Array.make t.n 0 in
    for i = from to t.n - 1 do
      let s = t.all.(i) in
      if s.parent >= from then
        child.(s.parent) <- child.(s.parent) + duration s
    done;
    let tbl = Hashtbl.create 16 in
    for i = from to t.n - 1 do
      let s = t.all.(i) in
      let self = s_of_ns (duration s - child.(i)) in
      Hashtbl.replace tbl s.name
        (self +. Option.value (Hashtbl.find_opt tbl s.name) ~default:0.)
    done;
    tbl

  let write_csv t path =
    Out_channel.with_open_bin path (fun oc ->
        output_string oc "index,name,op,parent,start_ns,stop_ns\n";
        for i = 0 to t.n - 1 do
          let s = t.all.(i) in
          Printf.fprintf oc "%d,%s,%d,%d,%d,%d\n" i s.name s.op s.parent
            s.start_ns s.stop_ns
        done)
end

(* --------------------- pass-differencing split ----------------------- *)

(* Replay's per-access layers cannot be timed per access (a clock read
   costs about as much as a replay step), so the traced run replays the
   same mapped trace in passes that each add one layer.  Given the pass
   times [t_1 <= t_2 <= ...], layer [k]'s self time is [t_k - t_(k-1)]
   (the first layer owns all of [t_1]).  The layers telescope back to the
   last pass, which is the op itself. *)
let diff_passes times =
  Array.mapi (fun k t -> if k = 0 then t else t -. times.(k - 1)) times
