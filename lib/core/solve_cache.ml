open Cacti_array
module Lru = Cacti_util.Lru

type stats = Lru.stats = { hits : int; misses : int }

type outcome = {
  bank : Bank.t;
  counts : Cacti_util.Diag.counts;
  from_cache : bool;
}

(* ------------------------------ tables ------------------------------- *)

(* Screen contexts, keyed by [Mat.screen_key]: the rows-independent screen
   tree plus the survivors of its most recent instantiation.  A re-solve
   whose spec differs from a cached one only along the size axis (the
   screen key excludes [n_rows] and the technology node) re-runs just the
   rows-per-subarray division over the tree instead of re-screening the
   whole partition grid; a spec differing only in technology reuses the
   survivors outright. *)
type screen_ctx = {
  sc_tree : Mat.screen_tree;
  sc_n_rows : int;  (** row count [sc_screened] was instantiated for *)
  sc_screened : (Org.t * Mat.geometry) list * int * int * int;
}

(* The selected-bank memo: one entry per (spec, params, bounds) solve,
   keyed by a string fingerprint so the persisted format is key-stable. *)
let banks : (string, Bank.t * Cacti_util.Diag.counts) Lru.t = Lru.create ()

let screens : (string, screen_ctx) Lru.t =
  let t = Lru.create () in
  (* A screen context holds a full survivor list (~2k orgs), so keep the
     working set modest; 32 covers every distinct (kind, geometry-shape)
     combination the study matrix sweeps concurrently. *)
  Lru.set_capacity t ~what:"Solve_cache.screens" (Some 32);
  t

let inc_full = Atomic.make 0
let inc_rows = Atomic.make 0
let inc_miss = Atomic.make 0

type shard = unit

let with_shard () f = f ()

(* ----------------------- incremental screening ----------------------- *)

type incremental = { full_hits : int; rows_hits : int; misses : int }

let incremental_stats () =
  {
    full_hits = Atomic.get inc_full;
    rows_hits = Atomic.get inc_rows;
    misses = Atomic.get inc_miss;
  }

let screened_for ?(max_ndwl = 64) ?(max_ndbl = 64) spec =
  let key = Mat.screen_key ~max_ndwl ~max_ndbl ~spec () in
  let n_rows = spec.Array_spec.n_rows in
  match Lru.find screens key with
  | Some ctx when ctx.sc_n_rows = n_rows ->
      (* Same shape, same rows (the spec differs at most in technology,
         which the arithmetic screen never reads): reuse outright. *)
      Atomic.incr inc_full;
      ctx.sc_screened
  | Some ctx ->
      (* Same shape, new size: only the rows division changed — re-walk
         the prebuilt tree instead of re-screening the grid. *)
      Atomic.incr inc_rows;
      let screened =
        Cacti_util.Profile.time "incremental_reuse" (fun () ->
            Mat.screen_of_tree ctx.sc_tree ~n_rows)
      in
      Lru.put screens key
        { ctx with sc_n_rows = n_rows; sc_screened = screened };
      screened
  | None ->
      Atomic.incr inc_miss;
      let tree = Mat.screen_tree ~max_ndwl ~max_ndbl ~spec () in
      let screened = Mat.screen_of_tree tree ~n_rows in
      ignore
        (Lru.publish screens key
           { sc_tree = tree; sc_n_rows = n_rows; sc_screened = screened });
      screened

(* The canonical fingerprint of one solve: every input that can change the
   selected organization.  Floats are printed in hex so distinct values can
   never collide through decimal rounding.  The technology is identified by
   its feature size and wire projection — [Technology.at_nm] is a pure
   function of them. *)
let fingerprint ~max_ndwl ~max_ndbl ~(params : Opt_params.t)
    (spec : Array_spec.t) =
  let w = params.Opt_params.weights in
  Printf.sprintf "%s|%h|%s|%d|%d|%d|%h|%b|%s|%d|%d|%h|%h|%h|%h|%h|%h|%h"
    (Cacti_tech.Cell.ram_kind_to_string spec.Array_spec.ram)
    (Cacti_tech.Technology.feature_size spec.Array_spec.tech)
    (match Cacti_tech.Technology.wire_projection spec.Array_spec.tech with
    | Cacti_tech.Wire.Aggressive -> "a"
    | Cacti_tech.Wire.Conservative -> "c")
    spec.Array_spec.n_rows spec.Array_spec.row_bits
    spec.Array_spec.output_bits spec.Array_spec.max_repeater_delay_penalty
    spec.Array_spec.sleep_tx
    (match spec.Array_spec.page_bits with
    | None -> "-"
    | Some p -> string_of_int p)
    max_ndwl max_ndbl params.Opt_params.max_area_pct
    params.Opt_params.max_acctime_pct w.Opt_params.w_dynamic
    w.Opt_params.w_leakage w.Opt_params.w_cycle w.Opt_params.w_interleave
    params.Opt_params.max_repeater_delay_penalty

let describe (spec : Array_spec.t) =
  Printf.sprintf "%s array (%d rows x %d bits, %d-bit port)"
    (Cacti_tech.Cell.ram_kind_to_string spec.Array_spec.ram)
    spec.Array_spec.n_rows spec.Array_spec.row_bits
    spec.Array_spec.output_bits

(* The branch-and-bound policy implied by the optimization parameters: the
   time rule always uses the staged selection's own [max_acctime_pct]; the
   energy rule is only sound when the objective weighs nothing but dynamic
   energy (see {!Cacti_array.Bank.bound_policy}). *)
let bound_policy (params : Opt_params.t) =
  let w = params.Opt_params.weights in
  {
    Bank.acctime_pct = params.Opt_params.max_acctime_pct;
    energy_only =
      w.Opt_params.w_dynamic > 0. && w.Opt_params.w_leakage = 0.
      && w.Opt_params.w_cycle = 0. && w.Opt_params.w_interleave = 0.;
  }

let select_bank_result ?(pool = Cacti_util.Pool.serial) ?cancel
    ?(max_ndwl = 64) ?(max_ndbl = 64) ?(strict = false) ?what ~params spec =
  let open Cacti_util in
  match (Array_spec.validate spec, Opt_params.validate params) with
  | Error d1, Error d2 -> Error (d1 @ d2)
  | Error ds, Ok _ | Ok _, Error ds -> Error ds
  | Ok _, Ok _ -> (
      let key = fingerprint ~max_ndwl ~max_ndbl ~params spec in
      match Lru.find banks key with
      | Some (b, counts) -> Ok { bank = b; counts; from_cache = true }
      | None -> (
          (* Enumerate outside the lock: it is the expensive, internally
             parallel part.  Two racing misses of the same key both compute
             the (identical, deterministic) solution; the first store wins
             so later hits share one value. *)
          let what = match what with Some w -> w | None -> describe spec in
          let screened = screened_for ~max_ndwl ~max_ndbl spec in
          (* Select over the sweep's metric columns and materialize only
             the winning record (see {!Optimizer.select_soa_result}). *)
          let sw =
            Bank.enumerate_soa ~pool ?cancel
              ~prune:params.Opt_params.max_area_pct
              ~bound:(bound_policy params)
              ~max_ndwl ~max_ndbl ~strict ~screened spec
          in
          let counts = sw.Bank.sw_counts in
          match
            Profile.time "optimize" (fun () ->
                Optimizer.select_soa_result ~what ~params sw.Bank.sw_soa)
          with
          | Error msg ->
              (* Failed solves are not memoized: the failure is cheap to
                 reproduce and the histogram may matter to the caller. *)
              Error
                [
                  Diag.error ~component:"solver" ~reason:"no_solution" msg;
                  Diag.info ~component:"solver" ~reason:"sweep_counts"
                    (Diag.counts_to_string counts);
                ]
          | Ok i ->
              let bank, counts =
                Lru.publish banks key (Bank.sweep_bank sw i, counts)
              in
              Ok { bank; counts; from_cache = false }))

let select_bank ?pool ?cancel ?max_ndwl ?max_ndbl ?strict ?what ~params spec =
  match
    select_bank_result ?pool ?cancel ?max_ndwl ?max_ndbl ?strict ?what ~params
      spec
  with
  | Ok o -> o.bank
  | Error (d :: _ as ds) ->
      if d.Cacti_util.Diag.reason = "no_solution" then
        raise (Optimizer.No_solution d.Cacti_util.Diag.message)
      else invalid_arg (Cacti_util.Diag.render ds)
  | Error [] -> assert false

(* ------------------------ stats and capacity ------------------------- *)

let stats () = Lru.stats banks
let size () = Lru.size banks
let capacity () = Lru.capacity banks
let set_capacity c = Lru.set_capacity banks ~what:"Solve_cache.set_capacity" c

let clear () =
  Lru.clear banks;
  Lru.clear screens;
  Atomic.set inc_full 0;
  Atomic.set inc_rows 0;
  Atomic.set inc_miss 0;
  Cacti_array.Bank.reset_stage_memo ()

(* ---------------------------- persistence ---------------------------- *)

(* On-disk format: one text header line

     CACTI-SOLVE-CACHE <format_version> <Sys.ocaml_version> <md5hex> <len>

   followed by exactly [len] bytes: a Marshal'd
   (string * Bank.t * Diag.counts) list in least-recently-used-first
   order (so re-inserting in file order reconstructs the LRU order).
   Only the selected-bank memo is persisted.

   Crash safety: the payload is written to a [.tmp] sibling, fsync'd,
   and atomically renamed over the destination, with a best-effort fsync
   of the containing directory so the rename itself survives a power
   cut.  The header's MD5 digest and byte length are checked before any
   byte is unmarshalled, so a torn or bit-flipped payload is detected
   deterministically (Marshal would otherwise read garbage or crash).
   Every failure mode — wrong magic, version or compiler mismatch,
   short read, checksum mismatch — returns [Error], never raises, so
   callers degrade to a cold start.  Marshal cannot validate the value's
   type; the version tokens are the guard, and [format_version] must be
   bumped whenever [Bank.t], [Diag.counts] or this layout changes. *)

let magic = "CACTI-SOLVE-CACHE"
let format_version = 3

type file_payload = (string * Bank.t * Cacti_util.Diag.counts) list

(* Flush application + OS buffers for the channel's file. *)
let fsync_out oc =
  flush oc;
  Unix.fsync (Unix.descr_of_out_channel oc)

(* Persist the directory entry created by rename(2); best-effort — some
   filesystems refuse fsync on a directory fd. *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | fd ->
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      (try Unix.close fd with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let save path =
  let entries = Lru.dump banks |> List.map (fun (k, (b, c)) -> (k, b, c)) in
  let tmp = path ^ ".tmp" in
  match
    let payload = Marshal.to_string (entries : file_payload) [] in
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        Printf.fprintf oc "%s %d %s %s %d\n" magic format_version
          Sys.ocaml_version
          (Digest.to_hex (Digest.string payload))
          (String.length payload);
        output_string oc payload;
        fsync_out oc);
    Sys.rename tmp path;
    fsync_dir (Filename.dirname path)
  with
  | () -> Ok (List.length entries)
  | exception Sys_error msg ->
      (try Sys.remove tmp with Sys_error _ -> ());
      Error msg
  | exception Unix.Unix_error (e, fn, _) ->
      (try Sys.remove tmp with Sys_error _ -> ());
      Error (Printf.sprintf "%s: %s" fn (Unix.error_message e))

let load path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic -> (
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          match
            let header = input_line ic in
            match String.split_on_char ' ' header with
            | m :: v :: rest when m = magic -> (
                if int_of_string_opt v <> Some format_version then
                  Error
                    (Printf.sprintf "format version %s, expected %d" v
                       format_version)
                else
                  match rest with
                  | [ ocaml; digest; len ] -> (
                      if ocaml <> Sys.ocaml_version then
                        Error
                          (Printf.sprintf
                             "written by OCaml %s, this binary is %s" ocaml
                             Sys.ocaml_version)
                      else
                        match int_of_string_opt len with
                        | None ->
                            Error
                              (Printf.sprintf "bad payload length %S" len)
                        | Some len ->
                            let payload = really_input_string ic len in
                            if
                              Digest.to_hex (Digest.string payload) <> digest
                            then
                              Error
                                "checksum mismatch (torn or corrupt \
                                 payload)"
                            else
                              let entries =
                                (Marshal.from_string payload 0 : file_payload)
                              in
                              Lru.restore banks
                                (List.map
                                   (fun (k, b, c) -> (k, (b, c)))
                                   entries);
                              Ok (List.length entries))
                  | _ -> Error "malformed header")
            | _ -> Error "bad magic (not a solve-cache file)"
          with
          | r -> r
          | exception End_of_file -> Error "truncated file"
          | exception Failure msg -> Error ("corrupt payload: " ^ msg)
          | exception Sys_error msg -> Error msg))
