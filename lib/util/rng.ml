(* xoshiro256** 1.0 (Blackman & Vigna).  State is four non-zero 64-bit
   words; seeding runs the 64-bit splitmix generator over the user seed so
   that small seeds still yield well-mixed states.

   The words live little-endian in a 32-byte [Bytes.t]: [Bytes.get/set_int64_le]
   read and write them unboxed, where a [mutable int64] record field would
   box every store.  [step] is inlined into each draw, so [int] and [bool]
   allocate nothing and [float] only its boxed result. *)

type t = Bytes.t

type state = { s0 : int64; s1 : int64; s2 : int64; s3 : int64 }

let[@inline] get t i = Bytes.get_int64_le t (8 * i)
let[@inline] set t i w = Bytes.set_int64_le t (8 * i) w

let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(* Four consecutive splitmix64 outputs, in order, as the state words. *)
let of_splitmix state =
  let t = Bytes.create 32 in
  for i = 0 to 3 do
    set t i (splitmix64 state)
  done;
  t

let create ~seed = of_splitmix (ref (Int64.of_int seed))
let copy = Bytes.copy
let save t = { s0 = get t 0; s1 = get t 1; s2 = get t 2; s3 = get t 3 }

let restore ~dst s =
  set dst 0 s.s0;
  set dst 1 s.s1;
  set dst 2 s.s2;
  set dst 3 s.s3

let derive_seed ~seed ~stream =
  (* Mix the pair through splitmix64 so that (seed, 0), (seed, 1), ...
     land far apart even for adjacent seeds; the result is kept
     positive so it can be fed back into [create] or stored in configs
     that print seeds in decimal. *)
  let state = ref (Int64.of_int seed) in
  let a = splitmix64 state in
  let state = ref (Int64.logxor a (Int64.of_int stream)) in
  let b = splitmix64 state in
  Int64.to_int (Int64.shift_right_logical b 1)

let[@inline] rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let[@inline] step t =
  let open Int64 in
  let s0 = get t 0 and s1 = get t 1 and s2 = get t 2 and s3 = get t 3 in
  let result = mul (rotl (mul s1 5L) 7) 9L in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  set t 0 (logxor s0 s3);
  set t 1 (logxor s1 s2);
  set t 2 (logxor s2 (shift_left s1 17));
  set t 3 (rotl s3 45);
  result

let bits64 t = step t

let split t =
  (* Seed the child from two parent outputs; mixing through splitmix64
     decorrelates the child stream from subsequent parent outputs. *)
  let rotated = step t in
  let plain = step t in
  of_splitmix (ref (Int64.logxor plain (rotl rotated 23)))

let bits53 t = Int64.to_int (Int64.shift_right_logical (step t) 11)

(* 53 high bits give a uniform double in [0,1). *)
let float t = float_of_int (bits53 t) *. 0x1.0p-53

let int t n =
  assert (n > 0);
  if n = 1 then 0
  else begin
    (* Rejection sampling over the low bits to avoid modulo bias. *)
    let mask = ref 1 in
    while !mask < n - 1 do
      mask := (!mask lsl 1) lor 1
    done;
    let mask = Int64.of_int !mask in
    let v = ref (Int64.to_int (Int64.logand (step t) mask)) in
    while !v >= n do
      v := Int64.to_int (Int64.logand (step t) mask)
    done;
    !v
  end

let int_in t ~lo ~hi =
  assert (lo <= hi);
  lo + int t (hi - lo + 1)

let bool t = Int64.equal (Int64.logand (step t) 1L) 1L
