(* The replacement policies of [Mcsim.Policy] written the slow, obvious
   way, as the reference that [Mcsim.Cache_sim] is tested against: a
   differential over random access / fill / invalidate streams compares
   every return value (test_sim.ml, "cache_sim").

   It follows the prose semantics of lib/sim/policy.mli (after the
   reverse-engineered CacheTrace / uops.info definitions) and the fill and
   geometry rules of lib/sim/cache_sim.mli, and shares nothing with
   Cache_sim but the [Policy.t] type:
   - a set is a list of ways, way 0 first, rebuilt on every change;
   - LRU keeps a recency list of ways, not clock stamps;
   - Tree-PLRU walks halving way ranges and keeps the set of right-pointing
     nodes, not a bit word;
   - states use Cache_sim's int encoding (0 = I, 1 = S, 2 = E, 3 = M), and
     an eviction is reported packed as [line * 4 + state], -1 for none. *)

open Mcsim

type way = { line : int; state : int; age : int }
(** [line] is -1 on an invalid way.  [age] is the QLRU age (0..3) or the
    MRU bit (0/1); other policies leave it 0. *)

let invalid = { line = -1; state = 0; age = 0 }
let valid w = w.line >= 0

type set = {
  mutable ways : way list;
  mutable recency : int list;
      (** LRU: indices of the valid ways, most recently used first *)
  mutable right : int list;
      (** Tree-PLRU: the tree nodes (root 1, children of [n] are [2n] and
          [2n + 1]) that point to their right half *)
  mutable pointer : int;  (** QLRU R1: the next way the victim scan tries *)
}

type t = { policy : Policy.t; sets : int; assoc : int; table : set array }

let rec pow2_floor p n = if 2 * p > n then p else pow2_floor (2 * p) n

let create ?(assoc = 8) ?(policy = Policy.Lru) ~lines () =
  if lines <= 0 || assoc <= 0 || lines mod assoc <> 0 then
    invalid_arg "Policy_naive.create";
  let sets = pow2_floor 1 (lines / assoc) in
  let assoc = lines / sets in
  if policy = Policy.Tree_plru && pow2_floor 1 assoc <> assoc then
    invalid_arg "Policy_naive.create: Tree-PLRU needs 2^k ways";
  if policy = Policy.Tree_plru && assoc > 32 then
    invalid_arg "Policy_naive.create: Tree-PLRU takes at most 32 ways";
  let empty_set () =
    { ways = List.init assoc (fun _ -> invalid); recency = []; right = [];
      pointer = 0 }
  in
  { policy; sets; assoc; table = Array.init sets (fun _ -> empty_set ()) }

let sets t = t.sets
let set_of t line = t.table.(line mod t.sets)

let find s line =
  let rec go i = function
    | [] -> None
    | w :: rest -> if w.line = line then Some (i, w) else go (i + 1) rest
  in
  go 0 s.ways

let update s f = s.ways <- List.mapi f s.ways
let set_way s i w' = update s (fun j w -> if j = i then w' else w)

(* ------------------------------ LRU ------------------------------ *)

let lru_touch s i = s.recency <- i :: List.filter (( <> ) i) s.recency
let lru_victim s = List.nth s.recency (List.length s.recency - 1)

(* --------------------------- Tree-PLRU --------------------------- *)

(* Node [n] splits the ways [lo, lo + size) into two halves.  Touching
   way [i] points every node on its root path at the other half. *)
let rec plru_touch s n lo size i =
  if size > 1 then begin
    let half = size / 2 in
    let others = List.filter (( <> ) n) s.right in
    if i < lo + half then begin
      s.right <- n :: others;
      plru_touch s (2 * n) lo half i
    end
    else begin
      s.right <- others;
      plru_touch s ((2 * n) + 1) (lo + half) half i
    end
  end

let rec plru_victim s n lo size =
  if size = 1 then lo
  else
    let half = size / 2 in
    if List.mem n s.right then plru_victim s ((2 * n) + 1) (lo + half) half
    else plru_victim s (2 * n) lo half

(* ------------------------------ QLRU ----------------------------- *)

let age_others s i =
  update s (fun j w ->
      if j <> i && valid w then { w with age = min 3 (w.age + 1) } else w)

let qlru_hit (h2, h3, u) s i =
  update s (fun j w ->
      if j <> i then w
      else
        { w with age = (match w.age with 0 | 1 -> 0 | 2 -> h2 | _ -> h3) });
  if u = 2 then age_others s i

(* Full set: raise every age by the amount that brings the oldest to 3,
   then take an age-3 way, leftmost (R0) or cyclically from the pointer
   (R1, which then moves past the victim). *)
let qlru_victim r assoc s =
  let oldest = List.fold_left (fun m w -> max m w.age) 0 s.ways in
  update s (fun _ w -> { w with age = w.age + (3 - oldest) });
  let aged3 i = (List.nth s.ways i).age = 3 in
  if r = 0 then
    let rec first i = if aged3 i then i else first (i + 1) in
    first 0
  else
    let rec scan k =
      let i = (s.pointer + k) mod assoc in
      if aged3 i then i else scan (k + 1)
    in
    let v = scan 0 in
    s.pointer <- (v + 1) mod assoc;
    v

(* ------------------------------ MRU ------------------------------ *)

(* Mark way [i]; once every valid way is marked, clear all other marks. *)
let mru_mark s i =
  update s (fun j w -> if j = i then { w with age = 1 } else w);
  if List.for_all (fun w -> (not (valid w)) || w.age = 1) s.ways then
    update s (fun j w -> if j = i then w else { w with age = 0 })

let mru_victim s =
  let rec go i = function
    | [] -> None
    | w :: rest -> if valid w && w.age = 0 then Some i else go (i + 1) rest
  in
  go 0 s.ways

(* --------------------------- operations -------------------------- *)

let probe t line =
  match find (set_of t line) line with Some (_, w) -> w.state | None -> 0

(* -1 on a miss, else the state before the access; a write hit becomes M. *)
let access t ~line ~write =
  let s = set_of t line in
  match find s line with
  | None -> -1
  | Some (i, w) ->
      (match t.policy with
      | Policy.Lru -> lru_touch s i
      | Policy.Tree_plru -> plru_touch s 1 0 t.assoc i
      | Policy.Qlru q -> qlru_hit (q.h2, q.h3, q.u) s i
      | Policy.Mru -> mru_mark s i
      | Policy.Mru_n -> set_way s i { w with age = 1 });
      if write then
        update s (fun j w -> if j = i then { w with state = 3 } else w);
      w.state

(* [line] must be absent.  An invalid way takes it if there is one (the
   leftmost); otherwise the policy picks the victim. *)
let fill t ~line ~state =
  let s = set_of t line in
  let rec first_invalid i = function
    | [] -> None
    | w :: rest -> if valid w then first_invalid (i + 1) rest else Some i
  in
  let i =
    match first_invalid 0 s.ways with
    | Some i -> i
    | None -> (
        match t.policy with
        | Policy.Lru -> lru_victim s
        | Policy.Tree_plru -> plru_victim s 1 0 t.assoc
        | Policy.Qlru q -> qlru_victim q.r t.assoc s
        | Policy.Mru | Policy.Mru_n -> (
            match mru_victim s with
            | Some v -> v
            | None ->
                update s (fun _ w -> { w with age = 0 });
                0))
  in
  let old = List.nth s.ways i in
  let age = match t.policy with Policy.Qlru q -> q.m | _ -> 0 in
  set_way s i { line; state; age };
  (match t.policy with
  | Policy.Lru -> lru_touch s i
  | Policy.Tree_plru -> plru_touch s 1 0 t.assoc i
  | Policy.Qlru q -> if q.u >= 1 then age_others s i
  | Policy.Mru | Policy.Mru_n -> mru_mark s i);
  if valid old then (old.line * 4) + old.state else -1

(* A present line takes [state]; 0 invalidates it.  Replacement metadata
   is left alone: an invalid way's is never read. *)
let set_state t ~line state =
  let s = set_of t line in
  match find s line with
  | None -> ()
  | Some (i, w) ->
      if state = 0 then begin
        set_way s i invalid;
        s.recency <- List.filter (( <> ) i) s.recency
      end
      else set_way s i { w with state }

let occupancy t =
  Array.fold_left
    (fun n s -> n + List.length (List.filter valid s.ways))
    0 t.table
