type pid = int
type phase = Thinking | Hungry | Eating
type message = Ping | Ack | Request of int | Fork

let phase_to_string = function
  | Thinking -> "thinking"
  | Hungry -> "hungry"
  | Eating -> "eating"

let pp_phase ppf p = Format.pp_print_string ppf (phase_to_string p)
let equal_phase (a : phase) b = a = b

let message_kind = function
  | Ping -> "ping"
  | Ack -> "ack"
  | Request _ -> "request"
  | Fork -> "fork"

let message_kind_index = function Ping -> 0 | Ack -> 1 | Request _ -> 2 | Fork -> 3

let message_kind_name = function
  | 0 -> "ping"
  | 1 -> "ack"
  | 2 -> "request"
  | 3 -> "fork"
  | k -> invalid_arg (Printf.sprintf "Types.message_kind_name: %d" k)

let bits_needed x =
  let rec go acc v = if v <= 0 then max acc 1 else go (acc + 1) (v lsr 1) in
  go 0 x

let message_bits ~n msg =
  let id_bits = bits_needed (n - 1) in
  match msg with
  | Ping | Ack -> id_bits
  | Request color -> id_bits + bits_needed color
  | Fork -> id_bits

exception Invariant_violation of string
