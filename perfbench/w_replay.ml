(* replay_csv / replay_summary: a seeded 4-thread binary trace replayed end
   to end — Trace_io.load_source, then Replayer.run_sharded ~jobs:1 over
   the skl preset (Tree-PLRU L1, QLRU L2/L3) on 4 cores.  An op is one
   trace; caches start empty in each op.  replay_csv renders every access
   with Report.append_csv_row into a byte-counting sink; replay_summary
   renders nothing.  A cycle is every trace once. *)

open Harness
module Trace_io = Mcreplay.Trace_io
module Replayer = Mcreplay.Replayer
module Report = Mcreplay.Report
module Jsonx = Cacti_util.Jsonx

let n_traces = 2
let accesses = 400_000
let n_setup = 5

let config () =
  match Mcsim.Policy.preset_of_string "skl" with
  | Ok p ->
      Replayer.with_preset p
        { Replayer.default_config with n_cores = Gen.trace_threads; line_bytes = Gen.line_bytes }
  | Error d -> failwith (Cacti_util.Diag.to_string d)

let render (cfg : Replayer.config) : Replayer.render =
 fun buf ~seq ~tid ~write ~addr o ->
  Report.append_csv_row buf ~seq ~tid ~write ~addr ~line_bytes:cfg.line_bytes o

(* Set-up: Trace_io.convert of every text trace to binary. *)
let convert_all txts bins =
  let t0 = now_ns () in
  Array.iteri
    (fun i src ->
      match Trace_io.convert ~src ~src_format:Text ~dst:bins.(i) ~dst_format:Binary () with
      | Ok n when n = accesses -> ()
      | Ok n -> failwith (Printf.sprintf "convert %s: %d records, expected %d" src n accesses)
      | Error d -> failwith (Cacti_util.Diag.to_string d))
    txts;
  s_of_ns (now_ns () - t0)

(* ---------------------- CSV stream verification ---------------------- *)

type csv_check = {
  mutable rows : int;
  levels : int array;  (** rows served at L1, L2, L3, MEM *)
  mutable cycles : int;
  mutable carry : string;
  mutable bad : string option;
  digest : Stream_digest.t;
}

let new_csv_check () =
  { rows = 0; levels = Array.make 4 0; cycles = 0; carry = ""; bad = None;
    digest = Stream_digest.create () }

let csv_row c line =
  match String.split_on_char ',' line with
  | seq :: _tid :: _op :: _addr :: level :: cycles :: _ -> (
      let lv =
        match level with "L1" -> 0 | "L2" -> 1 | "L3" -> 2 | "MEM" -> 3 | _ -> -1
      in
      match (int_of_string_opt seq, int_of_string_opt cycles) with
      | Some s, Some cy when s = c.rows && lv >= 0 ->
          c.levels.(lv) <- c.levels.(lv) + 1;
          c.cycles <- c.cycles + cy;
          c.rows <- c.rows + 1
      | _ -> if c.bad = None then c.bad <- Some ("bad CSV row: " ^ line))
  | _ -> if c.bad = None then c.bad <- Some ("bad CSV row: " ^ line)

(* The sink of the verification replay: rows may straddle slabs. *)
let csv_feed c slab =
  Stream_digest.add c.digest slab;
  let s = c.carry ^ slab in
  let start = ref 0 in
  String.iteri
    (fun i ch ->
      if ch = '\n' then begin
        csv_row c (String.sub s !start (i - !start));
        start := i + 1
      end)
    s;
  c.carry <- String.sub s !start (String.length s - !start)

type reference = {
  summary : Replayer.summary;
  bytes : int;
  broken : string option;  (** the verification's first error *)
}

(* Once per trace and run, untimed: the CSV's row count equals the access
   count, its per-level counts and cycle total equal Replayer.summary,
   which equals the summary-only replay's; at the default seed the CSV
   bytes and the summary JSON match the blessed digests. *)
let verify ctx cfg i bin =
  let src = Trace_io.load_source bin in
  let c = new_csv_check () in
  let s_csv, d1 = Replayer.run_sharded ~jobs:1 ~render:(render cfg) ~emit:(csv_feed c) cfg src in
  let s, d2 = Replayer.run_sharded ~jobs:1 cfg src in
  let fail fmt = Printf.ksprintf (fun m -> Some (Printf.sprintf "replay trace%d: %s" i m)) fmt in
  let key = Printf.sprintf "replay/trace%d" i in
  let broken =
    if d1 <> [] || d2 <> [] then fail "run_sharded returned diagnostics"
    else if c.bad <> None then c.bad
    else if c.carry <> "" then fail "CSV ends mid-row"
    else if s_csv <> s then fail "CSV replay summary differs from summary-only replay"
    else if c.rows <> accesses || s.accesses <> accesses then
      fail "%d CSV rows, %d summary accesses, %d in the trace" c.rows s.accesses accesses
    else if
      c.levels <> [| s.l1_hits; s.l2_hits; s.l3_hits; s.mem_accesses |]
      || c.cycles <> s.total_cycles
    then fail "CSV per-level counts or cycle total differ from the summary"
    else
      match Check.digest ctx.Ctx.check (key ^ "/csv") (Stream_digest.finish c.digest) with
      | Some m -> Some m
      | None ->
          let sj = Jsonx.to_string (Report.summary_json ~config:cfg s) in
          Check.digest ctx.Ctx.check (key ^ "/summary") (Digest.to_hex (Digest.string sj))
  in
  { summary = s; bytes = c.digest.Stream_digest.bytes; broken }

(* ------------------------------- ops --------------------------------- *)

let check_op ctx (r : reference) ~summary ~diags ~bytes =
  Check.op ctx.Ctx.check
    (List.filter_map Fun.id
       [
         r.broken;
         (if diags <> [] then Some "replay: run_sharded returned diagnostics" else None);
         (if summary <> r.summary then Some "replay: summary differs from the verified one"
          else None);
         (match bytes with
         | Some b when b <> r.bytes -> Some "replay: CSV byte count differs from the verified one"
         | _ -> None);
       ])

(* The timed op: what a user of cacti_replay waits for. *)
let op ~csv cfg bin =
  let bytes = ref 0 in
  let t0 = now_ns () in
  let src = Trace_io.load_source bin in
  let summary, diags =
    if csv then
      Replayer.run_sharded ~jobs:1 ~render:(render cfg)
        ~emit:(fun s -> bytes := !bytes + String.length s)
        cfg src
    else Replayer.run_sharded ~jobs:1 cfg src
  in
  let t1 = now_ns () in
  (s_of_ns (t1 - t0), summary, diags, if csv then Some !bytes else None)

(* The traced op: load, then passes over the same mapped trace that each
   add one layer — decode only, + step, + render into the replayer's
   reused buffer (rows dropped), + emit into the byte-counting sink.  The
   last pass is the op itself. *)
let traced ctx ~csv ~op cfg (r : reference) bin =
  let spans = ctx.Ctx.spans in
  let timed name f =
    let i = Spans.enter spans name ~op in
    let v = f () in
    Spans.leave spans i;
    (s_of_ns (Spans.duration spans.Spans.all.(i)), v)
  in
  let load, src = timed "trace_io.load_source" (fun () -> Trace_io.load_source bin) in
  let acc = ref 0 in
  let decode, () =
    timed "pass.decode" (fun () ->
        Trace_io.iter_source src ~f:(fun ~tid ~write ~addr ->
            acc := !acc lxor (addr + tid + Bool.to_int write)))
  in
  ignore (Sys.opaque_identity !acc);
  let step, (s, d) = timed "pass.step" (fun () -> Replayer.run_sharded ~jobs:1 cfg src) in
  let passes, last_ok =
    if not csv then ([| decode; step |], s = r.summary && d = [])
    else begin
      let rendered, (s2, d2) =
        timed "pass.render" (fun () ->
            Replayer.run_sharded ~jobs:1 ~render:(render cfg) ~emit:(fun _ -> ()) cfg src)
      in
      let bytes = ref 0 in
      let emitted, (s3, d3) =
        timed "pass.emit" (fun () ->
            Replayer.run_sharded ~jobs:1 ~render:(render cfg)
              ~emit:(fun s -> bytes := !bytes + String.length s)
              cfg src)
      in
      ( [| decode; step; rendered; emitted |],
        s = r.summary && s2 = r.summary && s3 = r.summary && d @ d2 @ d3 = []
        && !bytes = r.bytes )
    end
  in
  Check.op ctx.Ctx.check
    (List.filter_map Fun.id
       [ r.broken; (if last_ok then None else Some "replay: traced pass output differs") ]);
  (load, diff_passes passes, load +. passes.(Array.length passes - 1))

let run ~csv (ctx : Ctx.t) : Ctx.outcome =
  let cfg = config () in
  let path i ext = Filename.concat ctx.dir (Printf.sprintf "trace%d.%s" i ext) in
  let txts = Array.init n_traces (fun i -> path i "txt") in
  let bins = Array.init n_traces (fun i -> path i "bin") in
  Array.iteri (fun index p -> Gen.write_trace ~seed:ctx.seed ~index ~accesses p) txts;
  let setup = Array.init n_setup (fun _ -> convert_all txts bins) in
  let refs = Array.mapi (fun i bin -> verify ctx cfg i bin) bins in
  let ops = Fvec.create () in
  let words = ref 0. and majors = ref 0 in
  let untraced_s = ref 0. and traced_s = ref 0. in
  let per = Ctx.Per_cycle.create () in
  let untraced i =
    let w0 = Gc.minor_words () and m0 = (Gc.quick_stat ()).Gc.major_collections in
    let dt, summary, diags, bytes = op ~csv cfg bins.(i) in
    words := !words +. (Gc.minor_words () -. w0);
    majors := !majors + (Gc.quick_stat ()).Gc.major_collections - m0;
    Fvec.push ops dt;
    untraced_s := !untraced_s +. dt;
    check_op ctx refs.(i) ~summary ~diags ~bytes
  in
  let share = ref [] in
  Ctx.cycles ctx (fun cycle ->
      if not ctx.traced then for i = 0 to n_traces - 1 do untraced i done
      else begin
        let majors0 = !majors in
        let layer = Array.make 4 0. and load = ref 0. and wall = ref 0. in
        for i = 0 to n_traces - 1 do
          let traced () =
            let l, self, w = traced ctx ~csv ~op:((cycle * n_traces) + i) cfg refs.(i) bins.(i) in
            load := !load +. l;
            wall := !wall +. w;
            traced_s := !traced_s +. w;
            Array.iteri (fun k v -> layer.(k) <- layer.(k) +. v) self
          in
          if i land 1 = 0 then (untraced i; traced ()) else (traced (); untraced i)
        done;
        let n = float_of_int (n_traces * accesses) in
        let add = Ctx.Per_cycle.add per in
        add "trace_io.load_source.self_s" !load;
        add "trace_io.decode.self_s" layer.(0);
        add "replayer.step.self_s" layer.(1);
        add "replayer.step.ns_per_access" (layer.(1) *. 1e9 /. n);
        add "report.render.self_s" layer.(2);
        add "report.render.ns_per_access" (layer.(2) *. 1e9 /. n);
        add "report.emit.self_s" layer.(3);
        add "layers.coverage_ratio"
          (Ctx.ratio (!load +. Array.fold_left ( +. ) 0. layer) !wall);
        add "gc.major_collections" (float_of_int (!majors - majors0));
        share :=
          Ctx.ratio (if csv then layer.(2) +. layer.(3) else layer.(1)) !wall :: !share
      end);
  let layers =
    if not ctx.traced then []
    else begin
      let sum f = float_of_int (Array.fold_left (fun a r -> a + f r.summary) 0 refs) in
      let n = sum (fun s -> s.Replayer.accesses) in
      let per_k f = 1000. *. sum f /. n in
      [
        ("trace_io.convert.self_s", median setup);
        ( "report.bytes_per_access",
          if csv then float_of_int (Array.fold_left (fun a r -> a + r.bytes) 0 refs) /. n else 0. );
        ("replayer.l1_hit_ratio", sum (fun s -> s.l1_hits) /. n);
        ("replayer.l2_hit_ratio", Ctx.ratio (sum (fun s -> s.l2_hits)) (sum (fun s -> s.l2_accesses)));
        ("replayer.l3_hit_ratio", Ctx.ratio (sum (fun s -> s.l3_hits)) (sum (fun s -> s.l3_accesses)));
        ("replayer.mem_per_kaccess", per_k (fun s -> s.mem_accesses));
        ("replayer.invalidations_per_kaccess", per_k (fun s -> s.invalidations));
        ("replayer.c2c_per_kaccess", per_k (fun s -> s.c2c_transfers));
        ("replayer.writebacks_per_kaccess", per_k (fun s -> s.writebacks));
        ("gc.minor_words_per_work", Ctx.ratio !words (float_of_int (Fvec.length ops * accesses)));
        ("tracing.overhead_ratio", Ctx.ratio !traced_s !untraced_s);
      ]
      @ Ctx.Per_cycle.medians per
    end
  in
  {
    Ctx.setup;
    ops;
    work = float_of_int (Fvec.length ops * accesses);
    work_unit = "accesses";
    inputs =
      [
        ("traces", Jsonx.Int n_traces);
        ("accesses_per_trace", Jsonx.Int accesses);
        ("threads", Jsonx.Int Gen.trace_threads);
        ("cpu", Jsonx.String "skl");
      ];
    layers;
    dominance =
      (if ctx.traced then
         [ ((if csv then "report.render+report.emit" else "replayer.step"), median_list !share) ]
       else []);
  }
