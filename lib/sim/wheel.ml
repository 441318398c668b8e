(* Hierarchical timing wheel: 8 levels x 256 slots covering the full
   non-negative int tick range. An entry lives at the level of the
   highest byte in which its tick differs from [floor] (the last popped
   tick), in the slot named by that byte of the tick. Because placement
   only depends on bytes at or above the entry's level, and [floor] only
   crosses a level-l window boundary by cascading the slot that covers
   the crossing (which re-inserts its entries relative to the window
   start, strictly below level l), every entry's placement stays
   canonical with respect to the current floor. Two consequences the
   rest of the module relies on:

   - at each level, occupied slots sit at or above the floor's byte for
     that level, so a forward bitmap scan finds the frontier, and the
     frontier is the lowest occupied level: every level below it is
     empty;
   - a level-0 slot holds exactly one tick, the floor's upper bytes
     plus the slot index, so level 0 stores bare values.

   Same-tick order is global FIFO without sequence numbers: a slot only
   cascades when it is the frontier, so the slots it feeds are empty at
   that moment, and every slot holds one cascade's entries (oldest
   first) followed by direct inserts, in insertion order. Level-0 slots
   are FIFO value arrays; popping swaps the frontier slot's array in as
   the FIFO buffer, with no sort and no allocation. Levels >= 1 keep
   newest-first cell lists, which a cascade reverses in place and
   relinks oldest-first.

   The differential tests in test/test_sim.ml hold the wheel to a
   reference binary heap (test/pqueue.ml): identical pop streams for
   any interleaving of add/pop. *)

type 'a cells = Nil | Cons of { prio : int; value : 'a; mutable next : 'a cells }

let levels = 8
let slot_bits = 8
let slots_per_level = 1 lsl slot_bits
let slot_mask = slots_per_level - 1
let words_per_level = slots_per_level / 32

type 'a t = {
  mutable floor : int; (* last popped tick; no queued entry is below it *)
  upper : 'a cells array; (* levels 1..7 x 256, index = ((level - 1) lsl 8) lor slot *)
  l0 : 'a array array; (* level-0 slot values in FIFO order, [||] when empty *)
  l0_len : int array; (* fill of each level-0 array *)
  bitmap : int array; (* levels * 8 words, 32 occupancy bits per word *)
  dummy : 'a; (* fills every vacated array cell *)
  mutable spare : 'a array; (* one emptied array kept for reuse, or [||] *)
  (* Values of tick [floor] still to pop, in FIFO order; active iff
     buf_head < buf_len. *)
  mutable buf : 'a array;
  mutable buf_head : int;
  mutable buf_len : int;
  mutable cached_min : int; (* min prio over wheel slots (buffer excluded); -1 = unknown *)
  mutable size : int;
}

let no_values = [||]

let create ~dummy () =
  {
    floor = 0;
    upper = Array.make ((levels - 1) * slots_per_level) Nil;
    l0 = Array.make slots_per_level no_values;
    l0_len = Array.make slots_per_level 0;
    bitmap = Array.make (levels * words_per_level) 0;
    dummy;
    spare = no_values;
    buf = no_values;
    buf_head = 0;
    buf_len = 0;
    cached_min = -1;
    size = 0;
  }

let set_bit t l s =
  let w = (l * words_per_level) + (s lsr 5) in
  t.bitmap.(w) <- t.bitmap.(w) lor (1 lsl (s land 31))

let clear_bit t l s =
  let w = (l * words_per_level) + (s lsr 5) in
  t.bitmap.(w) <- t.bitmap.(w) land lnot (1 lsl (s land 31))

let ctz32 x =
  let n = ref 0 in
  let x = ref x in
  if !x land 0xFFFF = 0 then begin
    n := !n + 16;
    x := !x lsr 16
  end;
  if !x land 0xFF = 0 then begin
    n := !n + 8;
    x := !x lsr 8
  end;
  if !x land 0xF = 0 then begin
    n := !n + 4;
    x := !x lsr 4
  end;
  if !x land 0x3 = 0 then begin
    n := !n + 2;
    x := !x lsr 2
  end;
  if !x land 0x1 = 0 then incr n;
  !n

let rec scan_level t base w0 from w =
  if w >= words_per_level then -1
  else begin
    let word = t.bitmap.(base + w) in
    let word = if w = w0 then word land lnot ((1 lsl (from land 31)) - 1) else word in
    if word = 0 then scan_level t base w0 from (w + 1) else (w lsl 5) lor ctz32 word
  end

(* Smallest occupied slot >= [from] at level [l], or -1. The scan is
   inclusive of [from]: mid-cascade the floor is a window start whose
   own slot may legitimately hold entries (ticks equal to the window
   start); in externally visible states the floor is a fired tick and
   its slots are empty, so inclusivity is harmless there. The scan is a
   toplevel recursion, not a local closure over [t], which would cost an
   allocation on every new tick. *)
let next_slot t l from = scan_level t (l * words_per_level) (from lsr 5) from (from lsr 5)

let level_of x =
  let rec go l x = if x < slots_per_level then l else go (l + 1) (x lsr slot_bits) in
  go 0 x

let upper_index l s = ((l - 1) lsl slot_bits) lor s

(* Append [v] to a FIFO array holding [n] values, returning the array
   that now holds it. An empty array takes the spare when there is one. *)
let[@lint.hot] push t a n v =
  let a =
    if n < Array.length a then a
    else if n = 0 && Array.length t.spare > 0 then begin
      let s = t.spare in
      t.spare <- no_values;
      s
    end
    else begin
      (* Doubling growth, amortised O(1) per value: the array is the
         slot's storage. The fill is [dummy], which is old after the
         first minor collection, so a major-heap array does not force
         one the way a young initial value would. The outgrown array is
         released. *)
      let b = (Array.make (max 4 (2 * n)) t.dummy [@lint.allow "hot-path-alloc"]) in
      Array.blit a 0 b 0 n;
      b
    end
  in
  a.(n) <- v;
  a

let[@lint.hot] l0_push t s v =
  let n = t.l0_len.(s) in
  if n = 0 then set_bit t 0 s;
  t.l0.(s) <- push t t.l0.(s) n v;
  t.l0_len.(s) <- n + 1

(* Push [cell] onto the level-l (l >= 1) slot s list, newest first. *)
let[@lint.hot] link t l s cell =
  match cell with
  | Nil -> ()
  | Cons c ->
      let idx = upper_index l s in
      (match t.upper.(idx) with Nil -> set_bit t l s | Cons _ -> ());
      c.next <- t.upper.(idx);
      t.upper.(idx) <- cell

let[@lint.hot] insert t prio value =
  let l = level_of (prio lxor t.floor) in
  let s = (prio lsr (l * slot_bits)) land slot_mask in
  if l = 0 then l0_push t s value
  else
    (* Upper slots are intrusive lists by design: one cell per insert
       is the structure's storage, and cascades relink it in place. *)
    link t l s (Cons { prio; value; next = Nil } [@lint.allow "hot-path-alloc"])

let[@lint.hot] rec rev_cells acc cells =
  match cells with
  | Nil -> acc
  | Cons c ->
      let next = c.next in
      c.next <- acc;
      rev_cells cells next

(* Cascade re-inserts a drained slot's cells oldest-first, each at its
   canonical place under the current floor: relinked onto a lower
   upper-level list, or its value pushed onto a level-0 array (the cell
   is then dropped). [next] is read before [link] overwrites it; a
   toplevel recursion keeps the cascade path closure-free. *)
let[@lint.hot] rec relink_all t cells =
  match cells with
  | Nil -> ()
  | Cons c ->
      let next = c.next in
      let l = level_of (c.prio lxor t.floor) in
      let s = (c.prio lsr (l * slot_bits)) land slot_mask in
      if l = 0 then l0_push t s c.value else link t l s cells;
      relink_all t next

let buf_active t = t.buf_head < t.buf_len

(* The buffer is spent: keep its array (all cells [dummy] by now) as
   the spare, releasing the previous one. *)
let release_buf t =
  t.spare <- t.buf;
  t.buf <- no_values;
  t.buf_head <- 0;
  t.buf_len <- 0

let add t ~prio value =
  if prio < 0 then invalid_arg "Wheel.add: negative priority";
  (* [max_int] is [Sim.Time.infinity], the "never" sentinel ([next_tick]
     returns it for an empty wheel, [find_min] uses it as a fold seed);
     an entry at that tick would mean a saturated [Time.add] silently
     became a real event at the end of time. Every finite tick up to
     [max_int - 1] is representable. *)
  if prio = max_int then
    invalid_arg "Wheel.add: prio = max_int is Time.infinity (event would never fire)";
  if prio < t.floor then
    invalid_arg
      (Printf.sprintf "Wheel.add: prio=%d is below the last popped tick (%d)" prio t.floor);
  t.size <- t.size + 1;
  (* The buffer only ever holds tick [floor], whose wheel slots are
     empty, so an entry for it goes behind the buffered ones. *)
  if prio = t.floor then begin
    t.buf <- push t t.buf t.buf_len value;
    t.buf_len <- t.buf_len + 1
  end
  else begin
    insert t prio value;
    if t.cached_min >= 0 && prio < t.cached_min then t.cached_min <- prio
  end

(* Swap the frontier level-0 slot's array in as the FIFO buffer. The
   buffer is spent, and the slot's tick becomes the floor. *)
let drain_slot t s =
  t.buf <- t.l0.(s);
  t.buf_head <- 0;
  t.buf_len <- t.l0_len.(s);
  t.l0.(s) <- no_values;
  t.l0_len.(s) <- 0;
  clear_bit t 0 s;
  t.cached_min <- -1;
  t.floor <- (t.floor land lnot slot_mask) lor s

(* Distribute a level-l slot into lower levels. Re-anchoring the floor
   at the slot's window start is what keeps the redistributed entries
   canonically placed: each one shares bytes > l with the window start,
   so its new level is strictly below l and the advance loop makes
   progress. Raising the floor here is safe because everything still
   queued is at or beyond the window start, and the floor is observed
   externally only after [pop] restores it to a fired tick. *)
let[@lint.hot] cascade t l s =
  let idx = upper_index l s in
  let cells = t.upper.(idx) in
  t.upper.(idx) <- Nil;
  clear_bit t l s;
  let above =
    if (l + 1) * slot_bits >= Sys.int_size - 1 then 0
    else t.floor land lnot ((1 lsl ((l + 1) * slot_bits)) - 1)
  in
  t.floor <- above lor (s lsl (l * slot_bits));
  relink_all t (rev_cells Nil cells)

(* Find the frontier slot: levels are scanned lowest first because a
   level-l entry shares all bytes above l with the floor, so anything at
   a lower level is earlier. Within a level the first occupied slot at
   or after the floor's byte is earliest. The result is
   (level lsl slot_bits) lor slot: an int, so returning it allocates
   nothing. *)
let rec frontier_from t l =
  if l >= levels then invalid_arg "Wheel: corrupt structure (size > 0 but no occupied slot)"
  else begin
    let cursor = (t.floor lsr (l * slot_bits)) land slot_mask in
    let s = next_slot t l cursor in
    if s < 0 then frontier_from t (l + 1) else (l lsl slot_bits) lor s
  end

let rec advance t =
  let f = frontier_from t 0 in
  let l = f lsr slot_bits in
  if l = 0 then drain_slot t f
  else begin
    cascade t l (f land slot_mask);
    advance t
  end

let rec min_prio acc = function
  | Nil -> acc
  | Cons c -> min_prio (if c.prio < acc then c.prio else acc) c.next

(* Min priority over wheel slots without mutating; a frontier slot at
   a level >= 1 spans a range of ticks, hence the fold. *)
let find_min t =
  let f = frontier_from t 0 in
  let l = f lsr slot_bits in
  if l = 0 then (t.floor land lnot slot_mask) lor f
  else min_prio max_int t.upper.(upper_index l (f land slot_mask))

let[@lint.hot] next_tick t =
  if buf_active t then t.floor
  else if t.size = 0 then max_int
  else begin
    if t.cached_min < 0 then t.cached_min <- find_min t;
    t.cached_min
  end

let[@lint.hot] rec pop t =
  let h = t.buf_head in
  if h < t.buf_len then begin
    let v = t.buf.(h) in
    t.buf.(h) <- t.dummy;
    t.buf_head <- h + 1;
    if h + 1 = t.buf_len then release_buf t;
    t.size <- t.size - 1;
    v
  end
  else if t.size = 0 then invalid_arg "Wheel.pop: empty wheel"
  else begin
    advance t;
    pop t
  end

let size t = t.size
let is_empty t = t.size = 0
let floor t = t.floor
