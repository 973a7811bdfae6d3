(* splitmix64, Steele et al., "Fast splittable pseudorandom number
   generators".

   The 64-bit state and output are kept as two 32-bit limbs in native
   (immediate) ints rather than as [int64]: without flambda every [Int64]
   operation allocates a box, and the simulator draws several numbers per
   simulated memory reference — the boxed version dominated the engine's
   minor-heap traffic.  The limb arithmetic below reproduces the 64-bit
   wrapping semantics exactly, so the output stream is bit-identical to
   the [int64] formulation (pinned by tests and by the engine's golden
   statistics). *)

type t = {
  mutable s_hi : int;  (** state, high 32 bits *)
  mutable s_lo : int;  (** state, low 32 bits *)
  mutable z_hi : int;  (** last output, high 32 bits *)
  mutable z_lo : int;  (** last output, low 32 bits *)
}

let create seed =
  {
    s_hi = Int64.to_int (Int64.shift_right_logical seed 32);
    s_lo = Int64.to_int (Int64.logand seed 0xFFFFFFFFL);
    z_hi = 0;
    z_lo = 0;
  }

(* One splitmix64 step; the 64-bit output lands in [z_hi]/[z_lo].

   The arithmetic itself runs on local [int64] values: the compiler's
   local unboxing turns these into plain 64-bit machine ops, and because
   nothing of type [int64] is stored to a field or returned — the limbs
   cross the function boundary as immediate ints — the step allocates
   nothing.  (A [mutable state : int64] field would force one fresh box
   per step just to store the new state.) *)
let step t =
  let s =
    Int64.add
      (Int64.logor
         (Int64.shift_left (Int64.of_int t.s_hi) 32)
         (Int64.of_int t.s_lo))
      0x9E3779B97F4A7C15L
  in
  t.s_hi <- Int64.to_int (Int64.shift_right_logical s 32);
  t.s_lo <- Int64.to_int (Int64.logand s 0xFFFFFFFFL);
  let z =
    Int64.mul
      (Int64.logxor s (Int64.shift_right_logical s 30))
      0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul
      (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL
  in
  let z = Int64.logxor z (Int64.shift_right_logical z 31) in
  t.z_hi <- Int64.to_int (Int64.shift_right_logical z 32);
  t.z_lo <- Int64.to_int (Int64.logand z 0xFFFFFFFFL)

let bits53 t =
  step t;
  (t.z_hi lsl 21) lor (t.z_lo lsr 11)

let int t bound =
  assert (bound > 0);
  step t;
  if bound <= 0x40000000 then begin
    (* (z >>> 1) mod bound without materializing the 63-bit value (it
       does not fit a non-negative native int): reduce the two halves.
       For bound <= 2^30 the product below stays well inside 62 bits. *)
    let hi = t.z_hi lsr 1 in
    let lo = ((t.z_hi land 1) lsl 31) lor (t.z_lo lsr 1) in
    (((hi mod bound) * (0x100000000 mod bound)) + lo) mod bound
  end
  else
    Int64.to_int
      (Int64.rem
         (Int64.logor
            (Int64.shift_left (Int64.of_int t.z_hi) 31)
            (Int64.of_int (t.z_lo lsr 1)))
         (Int64.of_int bound))

(* 53 random bits mapped to [0,1).  The bits value is < 2^53, so
   [float_of_int] is exact and agrees with [Int64.to_float] of the same
   quantity.  The body is restated inline in [bernoulli] and
   [geometric_log1mp]: a call returning [float] boxes its result without
   flambda, and both sit on the simulator's per-reference path. *)
let float t bound =
  step t;
  float_of_int ((t.z_hi lsl 21) lor (t.z_lo lsr 11))
  *. (1.0 /. 9007199254740992.0)
  *. bound

let bernoulli t p =
  step t;
  float_of_int ((t.z_hi lsl 21) lor (t.z_lo lsr 11))
  *. (1.0 /. 9007199254740992.0)
  < p

(* The loop-invariant [log (1. -. p)] is hoisted out by the caller: one
   libm call instead of two per draw.  Only meaningful for p < 1 (the
   caller owns the p = 1 short-circuit). *)
let geometric_log1mp t ~log1mp =
  step t;
  let u =
    float_of_int ((t.z_hi lsl 21) lor (t.z_lo lsr 11))
    *. (1.0 /. 9007199254740992.0)
  in
  (* Not the polymorphic [max]: that call boxes its float argument. *)
  let u = if u < 1e-300 then 1e-300 else u in
  int_of_float (Float.floor (log u /. log1mp))
