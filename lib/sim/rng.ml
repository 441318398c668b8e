(* The state lives in an 8-byte buffer rather than a [mutable int64]
   field: a boxed field costs a fresh Int64 block per draw, while the
   native compiler reads and writes the buffer unboxed. [next] is inlined
   into the samplers below, so a draw allocates nothing. *)
type t = { state : Bytes.t }

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

(* splitmix64 finalizer (Steele, Lea, Flood 2014). *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed =
  let state = Bytes.create 8 in
  set64 state 0 seed;
  { state }

let[@inline] next t =
  let s = Int64.add (get64 t.state 0) golden_gamma in
  set64 t.state 0 s;
  mix s

(* The state is a counter stepped by [golden_gamma], so jumping [k]
   draws is one multiply-add. *)
let skip t k =
  set64 t.state 0 (Int64.add (get64 t.state 0) (Int64.mul (Int64.of_int k) golden_gamma))

let bits64 t = next t
let split t = create (next t)

let split_named t label =
  (* Hash the label into the current seed without advancing [t]. *)
  let h = ref (get64 t.state 0) in
  String.iter (fun c -> h := mix (Int64.add !h (Int64.of_int (Char.code c)))) label;
  create (mix !h)

let int t bound =
  assert (bound > 0);
  let mask = Int64.shift_right_logical (next t) 1 in
  Int64.to_int (Int64.rem mask (Int64.of_int bound))

let int_in t lo hi =
  assert (lo <= hi);
  lo + int t (hi - lo + 1)

let[@inline] bits53 t = Int64.to_int (Int64.shift_right_logical (next t) 11)
let[@inline] float t = float_of_int (bits53 t) /. 9007199254740992.0 (* 2^53 *)

let bool t = Int64.logand (next t) 1L = 1L

let[@inline] exponential t ~mean =
  let u = float t in
  let u = if u <= 0.0 then epsilon_float else u in
  -.mean *. log u

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick t a =
  assert (Array.length a > 0);
  a.(int t (Array.length a))
