(* solve_batch: JSONL requests through Service.handle_line, the request
   path every cacti_serve transport shares, around the design-space
   solver.  An op is one batch (Gen.solve_cycle's pass) answered by a fresh
   service with empty solve memos, as `cacti_serve --batch` answers a file
   of requests; a cycle is the batches that together solve every spec of
   the space once.  A single request is not the op: warm requests take
   ~35 us, and over ten runs their median spread by up to 34% (IQR over
   median) with the host's speed phases, more than any bound allows. *)

open Harness
module Jsonx = Cacti_util.Jsonx
module Service = Cacti_server.Service

let n_setup = 21

let find_sub s sub ~from =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  go from

let rfind_sub s sub =
  let m = String.length sub in
  let rec go i =
    if i < 0 then None else if String.sub s i m = sub then Some i else go (i - 1)
  in
  go (String.length s - m)

(* The solution text of a successful response line
   [{"id":..,"ok":true,"solution":S,"timing":{..}}]; [None] otherwise. *)
let solution_of resp =
  let ok_tag = {|,"ok":true,"solution":|} in
  match find_sub resp ok_tag ~from:0 with
  | None -> None
  | Some i -> (
      let start = i + String.length ok_tag in
      match rfind_sub resp {|,"timing":{|} with
      | Some j when j >= start -> Some (String.sub resp start (j - start))
      | _ -> None)

(* Checks of one pass: every answer ok, every repeat byte-equal to its
   spec's first answer, and at the default seed each spec's solution
   (timing excluded) equal to the blessed digest. *)
type pass_check = { firsts : string option array }

let new_pass_check () = { firsts = Array.make Gen.distinct None }

let check_response ctx pc (req : Gen.request) resp =
  Check.op ctx.Ctx.check
    (match solution_of resp with
    | None ->
        [ Printf.sprintf "solve_batch: not ok: %s"
            (String.sub resp 0 (min 200 (String.length resp))) ]
    | Some sol when req.first -> (
        pc.firsts.(req.key) <- Some sol;
        match
          Check.digest ctx.Ctx.check ("solve_batch/" ^ req.spec)
            (Digest.to_hex (Digest.string sol))
        with
        | None -> []
        | Some msg -> [ msg ])
    | Some sol -> (
        match pc.firsts.(req.key) with
        | Some f when f = sol -> []
        | _ -> [ "solve_batch: repeat differs from its first answer: " ^ req.line ]))

(* What cacti_serve does before serving: size the GC the way it does,
   then create the service.  Each sample first restores the start-up GC
   policy, so every sample pays the same minor-heap resize. *)
let setup_sample base_gc =
  Gc.set base_gc;
  let t0 = now_ns () in
  Cacti_util.Tuning.solver_gc ();
  let svc = Service.create ~jobs:1 () in
  let t1 = now_ns () in
  ignore (Sys.opaque_identity svc);
  s_of_ns (t1 - t0)

let fresh_service () =
  Cacti.Solve_cache.clear ();
  Service.create ~jobs:1 ()

type gc_acc = { mutable words : float; mutable majors : int; mutable reqs : int }

(* One untraced batch, the op: its latency goes to [ops] and is returned.
   The responses are checked after the batch, as a batch client reads
   them. *)
let untraced_pass ctx reqs ~ops ~gc =
  let svc = fresh_service () in
  let pc = new_pass_check () in
  let majors0 = (Gc.quick_stat ()).Gc.major_collections in
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  let resps = Array.map (fun (req : Gen.request) -> Service.handle_line svc req.line) reqs in
  let t1 = now_ns () in
  gc.words <- gc.words +. (Gc.minor_words () -. w0);
  gc.majors <- gc.majors + (Gc.quick_stat ()).Gc.major_collections - majors0;
  gc.reqs <- gc.reqs + Array.length reqs;
  Fvec.push ops (s_of_ns (t1 - t0));
  Array.iteri (fun i req -> check_response ctx pc req resps.(i)) reqs;
  s_of_ns (t1 - t0)

let cold_span = function
  | Gen.Cache -> "service.handle_json.cold_cache"
  | Gen.Ram -> "service.handle_json.cold_ram"
  | Gen.Mainmem -> "service.handle_json.cold_mainmem"

let num j path =
  let rec go j = function
    | [] -> Jsonx.get_float j
    | k :: rest -> Option.bind (Jsonx.member k j) (fun j -> go j rest)
  in
  Option.value (go j path) ~default:0.

(* The memo counters, from the service's own stats request. *)
let stats svc =
  let resp = Service.handle_line svc {|{"id":"stats","kind":"stats"}|} in
  match Jsonx.parse resp with
  | Ok j -> Option.value (Jsonx.member "solution" j) ~default:Jsonx.Null
  | Error _ -> Jsonx.Null

(* One traced batch: per request, spans around the layers handle_line is
   made of (parse, route and answer, print); then the stats request. *)
let traced_pass ctx reqs ~op =
  let spans = ctx.Ctx.spans in
  let svc = fresh_service () in
  let pc = new_pass_check () in
  let sp = Spans.enter spans "op" ~op in
  let resps =
    Cacti.Solve_cache.with_shard (Service.shard_cache svc 0) (fun () ->
        Array.map
          (fun (req : Gen.request) ->
            match Spans.with_span spans "jsonx.parse" ~op (fun () -> Jsonx.parse req.line) with
            | Error e -> "parse error: " ^ e
            | Ok j ->
                let name =
                  if req.first then cold_span req.kind else "service.handle_json.warm"
                in
                let r = Spans.with_span spans name ~op (fun () -> Service.handle_json svc j) in
                Spans.with_span spans "jsonx.to_string" ~op (fun () -> Jsonx.to_string r))
          reqs)
  in
  Spans.leave spans sp;
  Array.iteri (fun i req -> check_response ctx pc req resps.(i)) reqs;
  (s_of_ns (Spans.duration spans.Spans.all.(sp)), stats svc)

let run (ctx : Ctx.t) : Ctx.outcome =
  let base_gc = Gc.get () in
  let setup = Array.init n_setup (fun _ -> setup_sample base_gc) in
  let ops = Fvec.create () in
  let gc = { words = 0.; majors = 0; reqs = 0 } in
  let per = Ctx.Per_cycle.create () in
  let untraced_s = ref 0. and traced_s = ref 0. in
  let cold_share = ref [] in
  Ctx.cycles ctx (fun cycle ->
      let passes = Gen.solve_cycle ~seed:ctx.seed ~cycle in
      if not ctx.traced then
        Array.iter (fun reqs -> ignore (untraced_pass ctx reqs ~ops ~gc)) passes
      else begin
        let from = ctx.spans.Spans.n in
        let majors0 = gc.majors in
        let wall = ref 0. and stats_acc = ref [] in
        Array.iteri
          (fun k reqs ->
            let traced () =
              let w, st = traced_pass ctx reqs ~op:((cycle * Gen.passes_per_cycle) + k) in
              wall := !wall +. w;
              traced_s := !traced_s +. w;
              stats_acc := st :: !stats_acc
            in
            let untraced () =
              untraced_s := !untraced_s +. untraced_pass ctx reqs ~ops ~gc
            in
            if k land 1 = 0 then (untraced (); traced ()) else (traced (); untraced ()))
          passes;
        let self = Spans.self_times ~from ctx.spans in
        let get n = Option.value (Hashtbl.find_opt self n) ~default:0. in
        let add = Ctx.Per_cycle.add per in
        let cold =
          List.fold_left (fun acc k -> acc +. get (cold_span k)) 0. [ Gen.Cache; Ram; Mainmem ]
        in
        let layers =
          [ "jsonx.parse"; "service.handle_json.warm"; "jsonx.to_string" ]
          @ List.map cold_span [ Gen.Cache; Ram; Mainmem ]
        in
        List.iter (fun n -> add (n ^ ".self_s") (get n)) layers;
        add "service.handle_json.cold.self_s" cold;
        add "layers.coverage_ratio"
          (Ctx.ratio (List.fold_left (fun a n -> a +. get n) 0. layers) !wall);
        cold_share := Ctx.ratio cold !wall :: !cold_share;
        let sum path = List.fold_left (fun a st -> a +. num st path) 0. !stats_acc in
        let hit_ratio sect =
          let h = sum [ sect; "hits" ] in
          Ctx.ratio h (h +. sum [ sect; "misses" ])
        in
        add "service.resp_cache.hit_ratio" (hit_ratio "response_cache");
        add "solve_cache.hit_ratio" (hit_ratio "solve_cache");
        add "solve_cache.mat_memo.hit_ratio" (hit_ratio "mat_memo");
        let reuse = sum [ "incremental"; "full_hits" ] +. sum [ "incremental"; "rows_hits" ] in
        add "solve_cache.incremental.reuse_ratio"
          (Ctx.ratio reuse (reuse +. sum [ "incremental"; "misses" ]));
        let per_pass path = sum path /. float_of_int Gen.passes_per_cycle in
        add "solve_cache.entries" (per_pass [ "solve_cache"; "size" ]);
        add "solve_cache.mat_memo.entries" (per_pass [ "mat_memo"; "size" ]);
        add "gc.major_collections" (float_of_int (gc.majors - majors0))
      end);
  let layers =
    if not ctx.traced then []
    else
      ("gc.minor_words_per_work", Ctx.ratio gc.words (float_of_int gc.reqs))
      :: ("tracing.overhead_ratio", Ctx.ratio !traced_s !untraced_s)
      :: Ctx.Per_cycle.medians per
  in
  {
    Ctx.setup;
    ops;
    work = float_of_int (Fvec.length ops * Gen.pass_length);
    work_unit = "requests";
    inputs =
      [
        ("specs", Jsonx.Int (Array.length Gen.all_specs));
        ("batches_per_cycle", Jsonx.Int Gen.passes_per_cycle);
        ("requests_per_batch", Jsonx.Int Gen.pass_length);
        ("distinct_per_batch", Jsonx.Int Gen.distinct);
      ];
    layers;
    dominance =
      (if ctx.traced then [ ("service.handle_json.cold", median_list !cold_share) ] else []);
  }
