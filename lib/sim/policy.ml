type t =
  | Lru
  | Tree_plru
  | Qlru of { h2 : int; h3 : int; m : int; r : int; u : int }
  | Mru
  | Mru_n

let to_string = function
  | Lru -> "LRU"
  | Tree_plru -> "TREE_PLRU"
  | Qlru { h2; h3; m; r; u } ->
      Printf.sprintf "QLRU_H%d%d_M%d_R%d_U%d" h2 h3 m r u
  | Mru -> "MRU"
  | Mru_n -> "MRU_N"

let equal a b =
  match (a, b) with
  | Lru, Lru | Tree_plru, Tree_plru | Mru, Mru | Mru_n, Mru_n -> true
  | Qlru p, Qlru q ->
      p.h2 = q.h2 && p.h3 = q.h3 && p.m = q.m && p.r = q.r && p.u = q.u
  | _ -> false

let valid_names =
  [
    "lru"; "tree_plru (alias: plru)"; "mru"; "mru_n";
    "qlru_hXY_mZ_rW_uV (X,Y,Z in 0..3, W in 0..1, V in 0..2, \
     e.g. qlru_h11_m1_r0_u0)";
  ]

let unknown_policy s =
  Cacti_util.Diag.errorf ~component:"replay" ~reason:"unknown_policy"
    "unknown replacement policy %S; valid policies: %s" s
    (String.concat ", " valid_names)

(* "QLRU_HXY_MZ_RW_UV" with every digit range-checked; anything else is a
   typed refusal, never a silent fallback. *)
let parse_qlru s orig =
  let fail () = Error (unknown_policy orig) in
  match String.split_on_char '_' s with
  | [ "qlru"; h; m; r; u ]
    when String.length h = 3 && String.length m = 2 && String.length r = 2
         && String.length u = 2
         && h.[0] = 'h' && m.[0] = 'm' && r.[0] = 'r' && u.[0] = 'u' ->
      let digit c = Char.code c - Char.code '0' in
      let h2 = digit h.[1] and h3 = digit h.[2] in
      let m = digit m.[1] and r = digit r.[1] and u = digit u.[1] in
      let in_range v hi = v >= 0 && v <= hi in
      if in_range h2 3 && in_range h3 3 && in_range m 3 && in_range r 1
         && in_range u 2
      then Ok (Qlru { h2; h3; m; r; u })
      else fail ()
  | _ -> fail ()

let of_string s =
  let l = String.lowercase_ascii (String.trim s) in
  match l with
  | "lru" -> Ok Lru
  | "tree_plru" | "plru" -> Ok Tree_plru
  | "mru" -> Ok Mru
  | "mru_n" -> Ok Mru_n
  | _ ->
      if String.length l >= 4 && String.sub l 0 4 = "qlru" then
        parse_qlru l s
      else Error (unknown_policy s)

type preset = {
  cpu : string;
  short : string;
  year : int;
  l1 : t;
  l2 : t;
  l3 : t;
}

let qlru h2 h3 m r u = Qlru { h2; h3; m; r; u }

(* L3 column follows the CacheTrace/uops.info table exactly; all six parts
   use Tree-PLRU L1s, and Ivy Bridge and later use a QLRU L2. *)
let presets =
  [
    { cpu = "nehalem"; short = "nhm"; year = 2008;
      l1 = Tree_plru; l2 = Tree_plru; l3 = Mru };
    { cpu = "sandybridge"; short = "snb"; year = 2011;
      l1 = Tree_plru; l2 = Tree_plru; l3 = Mru_n };
    { cpu = "ivybridge"; short = "ivb"; year = 2012;
      l1 = Tree_plru; l2 = qlru 0 0 1 0 1; l3 = qlru 1 1 1 1 2 };
    { cpu = "haswell"; short = "hsw"; year = 2013;
      l1 = Tree_plru; l2 = qlru 0 0 1 0 1; l3 = qlru 1 1 1 1 2 };
    { cpu = "skylake"; short = "skl"; year = 2015;
      l1 = Tree_plru; l2 = qlru 0 0 1 0 1; l3 = qlru 1 1 1 1 2 };
    { cpu = "coffeelake"; short = "cfl"; year = 2017;
      l1 = Tree_plru; l2 = qlru 0 0 1 0 1; l3 = qlru 1 1 1 0 0 };
  ]

let preset_names =
  List.map (fun p -> Printf.sprintf "%s|%s" p.cpu p.short) presets

let preset_of_string s =
  let l = String.lowercase_ascii (String.trim s) in
  match List.find_opt (fun p -> p.cpu = l || p.short = l) presets with
  | Some p -> Ok p
  | None ->
      Error
        (Cacti_util.Diag.errorf ~component:"replay" ~reason:"unknown_cpu"
           "unknown CPU preset %S; valid CPUs: %s" s
           (String.concat ", " preset_names))

let kind_int = function
  | Lru -> 0
  | Tree_plru -> 1
  | Qlru _ -> 2
  | Mru -> 3
  | Mru_n -> 4

let qlru_params = function
  | Qlru { h2; h3; m; r; u } -> (h2, h3, m, r, u)
  | _ -> (0, 0, 0, 0, 0)
