type t = {
  mutable times : int array;
  mutable payloads : int array;
  mutable n : int;
}

let create ~capacity =
  let capacity = Int.max 1 capacity in
  { times = Array.make capacity 0; payloads = Array.make capacity 0; n = 0 }

let capacity h = Array.length h.times

let grow h =
  let c = Array.length h.times * 2 in
  let t = Array.make c 0 and p = Array.make c 0 in
  Array.blit h.times 0 t 0 h.n;
  Array.blit h.payloads 0 p 0 h.n;
  h.times <- t;
  h.payloads <- p

let swap h i j =
  let ti = h.times.(i) and pi = h.payloads.(i) in
  h.times.(i) <- h.times.(j);
  h.payloads.(i) <- h.payloads.(j);
  h.times.(j) <- ti;
  h.payloads.(j) <- pi

let push h ~time ~payload =
  if h.n = Array.length h.times then grow h;
  h.times.(h.n) <- time;
  h.payloads.(h.n) <- payload;
  (* While loop over non-escaping refs (kept on the stack): a local
     [let rec] capturing [h] would be closure-converted and allocate on
     every push in classic (non-flambda) mode. *)
  let i = ref h.n in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if h.times.(parent) > h.times.(!i) then begin
      swap h parent !i;
      i := parent
    end
    else continue := false
  done;
  h.n <- h.n + 1

(* Shared sift-down after removing the root.  Strict [<] comparisons mean
   equal keys never move, so the pop order on ties is a pure function of
   the push sequence — the determinism the event loop relies on (see the
   equal-key tests in test/test_sim.ml). *)
let sift_down h =
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let smallest = ref !i in
    if l < h.n && h.times.(l) < h.times.(!smallest) then smallest := l;
    if r < h.n && h.times.(r) < h.times.(!smallest) then smallest := r;
    if !smallest <> !i then begin
      swap h !i !smallest;
      i := !smallest
    end
    else continue := false
  done

let remove_root h =
  h.n <- h.n - 1;
  h.times.(0) <- h.times.(h.n);
  h.payloads.(0) <- h.payloads.(h.n);
  sift_down h

(* The engine's event loop never looks at the time component, so the pop
   returns the payload alone, unboxed: -1 when empty.  Payloads are thread
   ids, so non-negative. *)
let pop_payload h =
  if h.n = 0 then -1
  else begin
    let payload = h.payloads.(0) in
    remove_root h;
    payload
  end
