(* The access-time/area Pareto frontier of a bank list — the solutions
   plotted as bubbles in the Figure 1 validation.  No binary plots it, so
   it lives here with the other test-only code; test_cacti checks it on a
   real sweep and against the quadratic dominance definition. *)

open Cacti_array

(* Sort-then-scan Pareto frontier: order candidates by (t_access, area) and
   keep the ones strictly improving the running area minimum; ties on both
   axes are all kept, exact duplicates included, matching the quadratic
   dominance definition.  Output preserves the input order. *)
let pareto_access_area candidates =
  let arr = Array.of_list candidates in
  let n = Array.length arr in
  let order = Array.init n (fun i -> i) in
  Array.sort
    (fun i j ->
      let c = Float.compare arr.(i).Bank.t_access arr.(j).Bank.t_access in
      if c <> 0 then c else Float.compare arr.(i).Bank.area arr.(j).Bank.area)
    order;
  let keep = Array.make n false in
  (* min area over all strictly-faster groups *)
  let min_area_before = ref Float.infinity in
  let i = ref 0 in
  while !i < n do
    let t = arr.(order.(!i)).Bank.t_access in
    let j = ref !i in
    let group_min = ref Float.infinity in
    while !j < n && arr.(order.(!j)).Bank.t_access = t do
      group_min := Float.min !group_min arr.(order.(!j)).Bank.area;
      incr j
    done;
    (* An equal-time candidate above its group minimum is dominated inside
       the group; a group minimum not below every faster group's area is
       dominated by one of them. *)
    if !group_min < !min_area_before then
      for k = !i to !j - 1 do
        if arr.(order.(k)).Bank.area = !group_min then keep.(order.(k)) <- true
      done;
    min_area_before := Float.min !min_area_before !group_min;
    i := !j
  done;
  List.filteri (fun i _ -> keep.(i)) candidates
