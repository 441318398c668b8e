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
     plus the slot index.

   Entries are handles, and every slot is a FIFO list threaded through
   the handles' links: per handle its tick and its successor, two ints
   in a link chunk. Same-tick order is global FIFO without sequence
   numbers: a slot only cascades when it is the frontier, so the slots
   it feeds are empty at that moment, and every slot holds one
   cascade's entries (oldest first) followed by direct inserts, in
   insertion order. Appending at the tail keeps that invariant for
   both, so a cascade walks its list once and a drained level-0 list
   is the current tick's FIFO as it stands: no sort, no reversal, no
   allocation.

   The differential tests in test/test_sim.ml hold the wheel to a
   reference binary heap (test/pqueue.ml): identical pop streams for
   any interleaving of add/pop. *)

let levels = 8
let slot_bits = 8
let slots_per_level = 1 lsl slot_bits
let slot_mask = slots_per_level - 1
let words_per_level = slots_per_level / 32

(* Handle [h]'s tick and successor are words [2 (h land link_mask)] and
   the one after of link chunk [h lsr link_shift]: 256 words, the
   largest block the minor heap takes, so a chunk is born young. *)
let link_shift = 7
let link_mask = (1 lsl link_shift) - 1
let link_words = 2 lsl link_shift

(* The end of a list, and an empty slot's head and tail. *)
let nil = -1

(* The successor word of a handle that is in no list. *)
let unqueued = -2

type t = {
  mutable floor : int; (* last popped tick; no queued entry is below it *)
  (* Per level, the 256 slots' first and last handles (nil when empty);
     [||] until an entry is first filed at that level. *)
  heads : int array array;
  tails : int array array;
  bitmap : int array; (* levels * 8 words, 32 occupancy bits per word *)
  mutable links : int array array; (* link chunks, [||] until first used *)
  (* Handles of tick [floor] still to pop, in FIFO order: the drained
     level-0 list, plus adds at [floor] behind it. *)
  mutable cur_head : int;
  mutable cur_tail : int;
  mutable cached_min : int; (* min prio over wheel slots (current list excluded); -1 = unknown *)
  mutable size : int;
}

let no_ints = [||]

let create () =
  {
    floor = 0;
    heads = Array.make levels no_ints;
    tails = Array.make levels no_ints;
    bitmap = Array.make (levels * words_per_level) 0;
    links = [||];
    cur_head = nil;
    cur_tail = nil;
    cached_min = -1;
    size = 0;
  }

let[@inline] set_bit t l s =
  let w = (l * words_per_level) + (s lsr 5) in
  t.bitmap.(w) <- t.bitmap.(w) lor (1 lsl (s land 31))

let[@inline] clear_bit t l s =
  let w = (l * words_per_level) + (s lsr 5) in
  t.bitmap.(w) <- t.bitmap.(w) land lnot (1 lsl (s land 31))

(* Index of the lowest set bit of a non-zero 32-bit word, branch-free:
   [x land (-x)] isolates that bit, and multiplying it by the de Bruijn
   constant 0x077CB531 puts a distinct 5-bit pattern in the product's
   top five bits (of 32), which the string maps back to the index. *)
let debruijn =
  "\000\001\028\002\029\014\024\003\030\022\020\015\025\017\004\008\
   \031\027\013\023\021\019\016\007\026\012\018\006\011\005\010\009"

let[@inline] ctz32 x =
  Char.code (String.unsafe_get debruijn ((((x land -x) * 0x077CB531) land 0xFFFFFFFF) lsr 27))

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

(* ---- Links ----------------------------------------------------------- *)

let[@inline] chunk t h = t.links.(h lsr link_shift)
let[@inline] off h = (h land link_mask) lsl 1
let[@inline] prio_of t h = (chunk t h).(off h)
let[@inline] next_of t h = (chunk t h).(off h + 1)
let[@inline] set_next t h n = (chunk t h).(off h + 1) <- n

let[@inline] has_links t h =
  let k = h lsr link_shift in
  k < Array.length t.links && Array.length t.links.(k) > 0

(* Make room for handle [h]'s links: once per chunk, never per event.
   The directory doubles; a new chunk starts with every handle
   unqueued. *)
let grow_links t h =
  let k = h lsr link_shift in
  let n = Array.length t.links in
  if k >= n then begin
    let d = Array.make (max (k + 1) (2 * n)) no_ints in
    Array.blit t.links 0 d 0 n;
    t.links <- d
  end;
  if Array.length t.links.(k) = 0 then t.links.(k) <- Array.make link_words unqueued

let trim t ~handles =
  let keep = (max 0 handles + link_mask) lsr link_shift in
  if Array.length t.links > keep then t.links <- Array.sub t.links 0 keep

(* ---- Slots ----------------------------------------------------------- *)

(* A level's slot arrays, allocated the first time an entry is filed
   there: once per level per wheel, never per event. *)
let open_level t l =
  t.heads.(l) <- Array.make slots_per_level nil;
  t.tails.(l) <- Array.make slots_per_level nil

(* Append [h] to the level-l slot s list. *)
let[@inline][@lint.hot] append t l s h =
  set_next t h nil;
  let tails = t.tails.(l) in
  let tail = tails.(s) in
  if tail = nil then begin
    t.heads.(l).(s) <- h;
    set_bit t l s
  end
  else set_next t tail h;
  tails.(s) <- h

(* File [h], whose tick is [prio], at its canonical place under the
   current floor. *)
let[@inline][@lint.hot] insert t prio h =
  let l = level_of (prio lxor t.floor) in
  let s = (prio lsr (l * slot_bits)) land slot_mask in
  if Array.length t.tails.(l) = 0 then open_level t l;
  append t l s h

(* Cascade re-files a drained slot's list oldest-first. [next] is read
   before [append] overwrites it; a toplevel recursion keeps the
   cascade path closure-free. *)
let[@lint.hot] rec insert_all t h =
  if h <> nil then begin
    let next = next_of t h in
    insert t (prio_of t h) h;
    insert_all t next
  end

let below_floor t prio =
  invalid_arg (Printf.sprintf "Wheel.add: prio=%d is below the last popped tick (%d)" prio t.floor)

let already_queued h = invalid_arg (Printf.sprintf "Wheel.add: handle %d is already queued" h)

let[@lint.hot] add t ~prio h =
  if prio < 0 then invalid_arg "Wheel.add: negative priority";
  (* [max_int] is [Sim.Time.infinity], the "never" sentinel ([next_tick]
     returns it for an empty wheel, [find_min] uses it as a fold seed);
     an entry at that tick would mean a saturated [Time.add] silently
     became a real event at the end of time. Every finite tick up to
     [max_int - 1] is representable. *)
  if prio = max_int then
    invalid_arg "Wheel.add: prio = max_int is Time.infinity (event would never fire)";
  if prio < t.floor then below_floor t prio;
  if h < 0 then invalid_arg "Wheel.add: negative handle";
  if not (has_links t h) then grow_links t h;
  let c = chunk t h and o = off h in
  if c.(o + 1) <> unqueued then already_queued h;
  c.(o) <- prio;
  t.size <- t.size + 1;
  (* The current list only ever holds tick [floor], whose wheel slots
     are empty, so an entry for it goes behind the listed ones. *)
  if prio = t.floor then begin
    c.(o + 1) <- nil;
    if t.cur_tail = nil then t.cur_head <- h else set_next t t.cur_tail h;
    t.cur_tail <- h
  end
  else begin
    insert t prio h;
    if t.cached_min >= 0 && prio < t.cached_min then t.cached_min <- prio
  end

(* Move the frontier level-0 slot's list in as the current list, which
   is empty, and make the slot's tick the floor. *)
let[@inline] drain_slot t s =
  let heads = t.heads.(0) and tails = t.tails.(0) in
  t.cur_head <- heads.(s);
  t.cur_tail <- tails.(s);
  heads.(s) <- nil;
  tails.(s) <- nil;
  clear_bit t 0 s;
  t.cached_min <- -1;
  t.floor <- (t.floor land lnot slot_mask) lor s

(* Distribute a level-l slot into lower levels. Re-anchoring the floor
   at the slot's window start is what keeps the redistributed entries
   canonically placed: each one shares bytes > l with the window start,
   so its new level is strictly below l and the advance loop makes
   progress. Raising the floor here is safe because everything still
   queued is at or beyond the window start, and the floor is observed
   externally only after [pop_until] restores it to a fired tick. *)
let[@lint.hot] cascade t l s =
  let heads = t.heads.(l) in
  let h = heads.(s) in
  heads.(s) <- nil;
  t.tails.(l).(s) <- nil;
  clear_bit t l s;
  let above =
    if (l + 1) * slot_bits >= Sys.int_size - 1 then 0
    else t.floor land lnot ((1 lsl ((l + 1) * slot_bits)) - 1)
  in
  t.floor <- above lor (s lsl (l * slot_bits));
  insert_all t h

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

let rec min_prio t acc h =
  if h = nil then acc
  else
    let p = prio_of t h in
    min_prio t (if p < acc then p else acc) (next_of t h)

(* Min priority over wheel slots without mutating; a frontier slot at
   a level >= 1 spans a range of ticks, hence the fold. *)
let find_min t =
  let f = frontier_from t 0 in
  let l = f lsr slot_bits in
  if l = 0 then (t.floor land lnot slot_mask) lor f
  else min_prio t max_int t.heads.(l).(f land slot_mask)

let[@lint.hot] next_tick t =
  if t.cur_head <> nil then t.floor
  else if t.size = 0 then max_int
  else begin
    if t.cached_min < 0 then t.cached_min <- find_min t;
    t.cached_min
  end

(* Unlink the current list's head [h]. *)
let[@inline] take_current t h =
  let c = chunk t h and o = off h in
  let next = c.(o + 1) in
  c.(o + 1) <- unqueued;
  t.cur_head <- next;
  if next = nil then t.cur_tail <- nil;
  t.size <- t.size - 1;
  h

(* A new tick costs one frontier scan. With no cached minimum, the scan
   that finds the frontier also settles the question: a level-0
   frontier is one tick, drained at once when due; a higher one is
   folded for its minimum first and cascaded only when that minimum is
   due, so a wheel with nothing due keeps its floor (and accepts any
   add from it on) and changes only [cached_min]. A cached minimum
   answers without a scan when nothing is due. *)
let[@lint.hot] rec pop_until t until =
  let h = t.cur_head in
  if h <> nil then (if t.floor <= until then take_current t h else nil)
  else if t.size = 0 then nil
  else if t.cached_min >= 0 then
    if t.cached_min > until then nil
    else begin
      advance t;
      take_current t t.cur_head
    end
  else begin
    let f = frontier_from t 0 in
    let l = f lsr slot_bits and s = f land slot_mask in
    if l = 0 then begin
      let tick = (t.floor land lnot slot_mask) lor s in
      if tick > until then begin
        t.cached_min <- tick;
        nil
      end
      else begin
        drain_slot t s;
        take_current t t.cur_head
      end
    end
    else begin
      t.cached_min <- min_prio t max_int t.heads.(l).(s);
      if t.cached_min > until then nil
      else begin
        cascade t l s;
        pop_until t until
      end
    end
  end

let size t = t.size
let is_empty t = t.size = 0
let floor t = t.floor
