(* The splitmix64 state lives in an 8-byte buffer rather than a
   [mutable int64] field: the field would hold a boxed [Int64] and
   allocate a fresh one per draw, while [Bytes.get/set_int64_ne] are
   primitives that load and store the raw 64 bits.  With [mix64] and the
   step inlined, a draw allocates only what its result needs boxed. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create seed = of_state (mix64 (Int64.of_int seed))

let[@inline] bits64 t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 s;
  mix64 s

let split t = of_state (mix64 (bits64 t))

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection-free for our purposes: modulo bias is negligible for the
     bounds used in simulation (<< 2^32).  Shift by 2 so the value fits
     OCaml's 63-bit native int without going negative. *)
  let v = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  v mod bound

let[@inline] bits53 t = Int64.to_int (Int64.shift_right_logical (bits64 t) 11)

(* 53 random bits scaled into [0,1). *)
let[@inline] uniform t = float_of_int (bits53 t) *. 0x1p-53

(* The draw and the comparison share one body, so the uniform never
   leaves it boxed; callers across the module boundary get a bool. *)
let bernoulli t p = uniform t < p

let rec uniform_pos t =
  let u = uniform t in
  if u > 0. then u else uniform_pos t

let float t bound = uniform t *. bound

let exponential t ~mean = -.mean *. log (uniform_pos t)

let shuffle_in_place t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
