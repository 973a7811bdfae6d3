(* Seeded input generators.  The program under test only ever sees what
   these produce: JSONL request lines, text traces, and the app x config
   list with an engine seed.  The same seed gives byte-identical inputs
   (tested), independently of the OCaml runtime's own Random. *)

(* SplitMix64, one independent stream per (seed, stream) pair. *)
type rng = { mutable s : int64 }

let golden = 0x9E3779B97F4A7C15L

let next64 r =
  r.s <- Int64.add r.s golden;
  let z = r.s in
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let rng ~seed ~stream =
  let r = { s = Int64.(add (mul (of_int seed) golden) (of_int stream)) } in
  ignore (next64 r);
  r

let int r bound = Int64.(to_int (unsigned_rem (next64 r) (of_int bound)))
let float r = Int64.(to_float (shift_right_logical (next64 r) 11)) *. 0x1p-53

let shuffle r a =
  for i = Array.length a - 1 downto 1 do
    let j = int r (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* ------------------------- solve requests ---------------------------- *)

type kind = Cache | Ram | Mainmem

let kind_name = function Cache -> "cache" | Ram -> "ram" | Mainmem -> "mainmem"

(* Every spec below solves at this commit (checked by the benchmark's
   correctness pass on every run). *)
let techs = [| 90; 65; 45; 32 |]
let cells = [| "sram"; "lp-dram"; "comm-dram" |]
let kib k = k * 1024

let cache_specs =
  let caps = Array.init 9 (fun i -> kib 32 lsl i) (* 32 KB .. 8 MB *) in
  Array.concat
    (List.concat_map
       (fun tech ->
         List.concat_map
           (fun cell ->
             List.map
               (fun cap ->
                 Array.map
                   (fun assoc ->
                     Printf.sprintf
                       {|{"tech_nm":%d,"capacity_bytes":%d,"assoc":%d,"ram":"%s"}|}
                       tech cap assoc cell)
                   [| 4; 8; 16 |])
               (Array.to_list caps))
           (Array.to_list cells))
       (Array.to_list techs))

let ram_specs =
  Array.concat
    (List.concat_map
       (fun tech ->
         List.concat_map
           (fun cell ->
             List.map
               (fun cap ->
                 Array.map
                   (fun wb ->
                     Printf.sprintf
                       {|{"tech_nm":%d,"capacity_bytes":%d,"word_bits":%d,"ram":"%s"}|}
                       tech cap wb cell)
                   [| 64; 128 |])
               [ kib 64; kib 256; kib 1024; kib 4096 ])
           (Array.to_list cells))
       (Array.to_list techs))

let mainmem_specs =
  Array.concat
    (List.concat_map
       (fun tech ->
         List.concat_map
           (fun gbit ->
             List.map
               (fun page ->
                 Array.map
                   (fun iface ->
                     Printf.sprintf
                       {|{"tech_nm":%d,"capacity_bits":%d,"page_bits":%d,"interface":"%s"}|}
                       tech (gbit lsl 30) page iface)
                   [| "ddr3"; "ddr4" |])
               [ 4096; 8192 ])
           [ 1; 2; 4; 8 ])
       (Array.to_list techs))

type request = {
  line : string;  (** the JSONL request, without newline *)
  spec : string;  (** kind and spec: the same for every repeat *)
  first : bool;  (** first occurrence of its spec in the pass *)
  kind : kind;
  key : int;  (** index of its distinct spec within the pass *)
}

let all_specs =
  Array.concat
    [
      Array.map (fun s -> (Cache, s)) cache_specs;
      Array.map (fun s -> (Ram, s)) ram_specs;
      Array.map (fun s -> (Mainmem, s)) mainmem_specs;
    ]

(* One cycle of solve_batch passes (a pass is one batch, the op): every
   spec of the space is the first occurrence of exactly one pass, so the
   solver work of a cycle does not depend on the seed;
   the seed (and the cycle number) only chooses which specs share a pass
   and the order of the requests.  A pass holds [distinct] specs and
   [per_distinct] requests per spec: every [per_distinct]-th request
   introduces a new spec, the others repeat an already introduced one,
   Zipf(1)-skewed towards the earliest. *)
let per_distinct = 8
let distinct = 22
let pass_length = per_distinct * distinct
let passes_per_cycle = Array.length all_specs / distinct

let () = assert (passes_per_cycle * distinct = Array.length all_specs)

let zipf_cdf =
  let c = Array.make distinct 0. in
  let acc = ref 0. in
  for i = 0 to distinct - 1 do
    acc := !acc +. (1. /. float_of_int (i + 1));
    c.(i) <- !acc
  done;
  c

let solve_cycle ~seed ~cycle =
  let r = rng ~seed ~stream:(1_000 + cycle) in
  let order = Array.copy all_specs in
  shuffle r order;
  Array.init passes_per_cycle (fun pass ->
      let specs = Array.sub order (pass * distinct) distinct in
      let seen = ref 0 in
      Array.init pass_length (fun i ->
          let first = i mod per_distinct = 0 in
          let key =
            if first then begin
              incr seen;
              !seen - 1
            end
            else begin
              let u = float r *. zipf_cdf.(!seen - 1) in
              let k = ref 0 in
              while zipf_cdf.(!k) < u do incr k done;
              !k
            end
          in
          let kind, spec = specs.(key) in
          {
            line =
              Printf.sprintf {|{"id":%d,"kind":"%s","spec":%s}|} i (kind_name kind) spec;
            spec = kind_name kind ^ " " ^ spec;
            first;
            kind;
            key;
          }))

(* ----------------------------- traces -------------------------------- *)

(* A 4-thread trace whose shape exercises the whole replay path:
   - each thread has a private 16 KB hot set that stays L1-resident, so
     most accesses take the L1-hit path;
   - all threads read and write one shared 4 KB region, which drives peer
     invalidations and cache-to-cache transfers;
   - each thread streams through its own 64 MB region (larger than the
     L3), so stream accesses that start a new line go to memory. *)
let trace_threads = 4
let line_bytes = 64
let hot_bytes = kib 16
let shared_bytes = kib 4
let stream_bytes = 64 lsl 20
let p_hot = 0.89
let p_shared = 0.04

let write_trace ~seed ~index ~accesses path =
  let r = rng ~seed ~stream:(2_000 + index) in
  let stream_pos =
    Array.init trace_threads (fun _ -> int r (stream_bytes / line_bytes) * line_bytes)
  in
  let buf = Buffer.create (1 lsl 16) in
  Out_channel.with_open_bin path (fun oc ->
      Buffer.add_string buf "# perfbench trace\n";
      for _ = 1 to accesses do
        let tid = int r trace_threads in
        let u = float r in
        let addr, write =
          if u < p_hot then
            ( 0x1000_0000 + (tid * 0x100_0000) + (int r (hot_bytes / 8) * 8),
              float r < 0.3 )
          else if u < p_hot +. p_shared then
            (0x4000_0000 + (int r (shared_bytes / 8) * 8), float r < 0.5)
          else begin
            let p = stream_pos.(tid) in
            stream_pos.(tid) <- (p + 16) mod stream_bytes;
            (0x1_0000_0000 + (tid * 0x1000_0000) + p, float r < 0.1)
          end
        in
        Printf.bprintf buf "%c 0x%x %d\n" (if write then 'W' else 'R') addr tid;
        if Buffer.length buf >= 1 lsl 16 then begin
          Buffer.output_buffer oc buf;
          Buffer.clear buf
        end
      done;
      Buffer.output_buffer oc buf)

(* ----------------------------- study --------------------------------- *)

(* The engine seed of the llc_study cells: a pure function of the
   benchmark seed, kept positive and below 2^30. *)
let engine_seed ~seed = Int64.of_int (int (rng ~seed ~stream:3_000) (1 lsl 30))
