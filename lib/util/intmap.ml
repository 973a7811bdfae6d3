type t = {
  mutable keys : int array;  (** -1 = empty slot *)
  mutable vals : int array;
  mutable mask : int;  (** capacity - 1; capacity is a power of two *)
  mutable population : int;
}

let empty_key = -1

let rec pow2_ge n x = if x >= n then x else pow2_ge n (x * 2)

let create ?(capacity = 16) () =
  (* Size so the capacity hint fits under the 7/8 load ceiling. *)
  let cap = pow2_ge (Int.max 8 (capacity + (capacity / 4))) 8 in
  {
    keys = Array.make cap empty_key;
    vals = Array.make cap 0;
    mask = cap - 1;
    population = 0;
  }

let length t = t.population

(* [vals] is read only at slots holding a key, so it needs no reset. *)
let clear t =
  Array.fill t.keys 0 (Array.length t.keys) empty_key;
  t.population <- 0

(* Fibonacci hashing: multiply by 2^63/phi (odd), then fold the high bits
   down with a xor-shift so the low bits used by [land mask] depend on the
   whole key.  Line indices are often sequential; this spreads them. *)
let slot t k =
  (* 2^63/phi truncated to OCaml's 63-bit int range; the product wraps
     mod 2^63 so the high bit of the usual 64-bit constant is moot. *)
  let h = k * 0x1E3779B97F4A7C15 in
  (h lxor (h lsr 29)) land t.mask

(* Walk the probe chain to [k]'s slot or the first empty one.  Top-level
   recursion on purpose: a local [let rec] capturing [keys]/[k] would be
   closure-converted and allocate per call in classic (non-flambda)
   mode. *)
let rec scan keys mask k i =
  let key = Array.unsafe_get keys i in
  if key = k || key = empty_key then i else scan keys mask k ((i + 1) land mask)

(* Index of [k]'s slot, or -1 when absent. *)
let find t k =
  let i = scan t.keys t.mask k (slot t k) in
  if Array.unsafe_get t.keys i = k then i else -1

let get t k =
  let i = scan t.keys t.mask k (slot t k) in
  if Array.unsafe_get t.keys i = k then Array.unsafe_get t.vals i else 0

(* Backward-shift deletion for linear probing: empty the slot, then walk
   the rest of the probe chain moving entries down when their ideal slot
   lies outside the cyclic interval (hole, current].  No tombstones, so
   chains never rot. *)
let delete_at t i =
  t.population <- t.population - 1;
  let keys = t.keys and vals = t.vals and mask = t.mask in
  let hole = ref i in
  let j = ref i in
  let continue = ref true in
  while !continue do
    j := (!j + 1) land mask;
    let kj = keys.(!j) in
    if kj = empty_key then begin
      keys.(!hole) <- empty_key;
      continue := false
    end
    else begin
      let ideal = slot t kj in
      (* Move kj into the hole iff the hole lies cyclically within
         [ideal, j), i.e. kj's probe would have visited the hole. *)
      let h = (!hole - ideal) land mask and d = (!j - ideal) land mask in
      if h <= d then begin
        keys.(!hole) <- kj;
        vals.(!hole) <- vals.(!j);
        hole := !j
      end
    end
  done

let grow t =
  let old_keys = t.keys and old_vals = t.vals in
  let cap = Array.length old_keys * 2 in
  t.keys <- Array.make cap empty_key;
  t.vals <- Array.make cap 0;
  t.mask <- cap - 1;
  let keys = t.keys and vals = t.vals and mask = t.mask in
  Array.iteri
    (fun i k ->
      if k <> empty_key then begin
        let rec probe j =
          if keys.(j) = empty_key then begin
            keys.(j) <- k;
            vals.(j) <- old_vals.(i)
          end
          else probe ((j + 1) land mask)
        in
        probe (slot t k)
      end)
    old_keys

let set t k v =
  if v = 0 then begin
    let i = find t k in
    if i >= 0 then delete_at t i
  end
  else begin
    let keys = t.keys in
    let i = scan keys t.mask k (slot t k) in
    if Array.unsafe_get keys i = k then Array.unsafe_set t.vals i v
    else begin
      Array.unsafe_set keys i k;
      Array.unsafe_set t.vals i v;
      t.population <- t.population + 1;
      (* Keep load under 7/8 so probe chains stay short. *)
      if t.population * 8 > (t.mask + 1) * 7 then grow t
    end
  end

let iter f t =
  Array.iteri (fun i k -> if k <> empty_key then f k t.vals.(i)) t.keys
