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
     that level, so a forward bitmap scan finds the frontier;
   - all entries for one tick are always co-located, so draining one
     level-0 slot and sorting it by (prio, seq) yields exactly the
     global FIFO order for that tick, even though insertion happened
     across different floor epochs.

   Same-tick order among equal priorities is therefore global FIFO. The
   differential tests in test/test_sim.ml hold the wheel to a reference
   binary heap (test/pqueue.ml) with the same dead-husk accounting and
   compaction threshold: identical pop streams, husks included, for any
   interleaving of add/cancel/pop. *)

type 'a entry = { prio : int; seq : int; value : 'a }

let levels = 8
let slot_bits = 8
let slots_per_level = 1 lsl slot_bits
let slot_mask = slots_per_level - 1
let words_per_level = slots_per_level / 32

(* Below this size a rebuild costs more than the husks it reclaims.
   The reference heap in the tests uses the same threshold. *)
let compaction_floor = 16

type 'a t = {
  mutable floor : int; (* last popped tick; no queued entry is below it *)
  slots : 'a entry list array; (* levels * 256, index = (level lsl 8) lor slot *)
  bitmap : int array; (* levels * 8 words, 32 occupancy bits per word *)
  (* Entries for the tick currently being fired, in FIFO order;
     active iff buf_head < buf_len. *)
  mutable buf : 'a entry array;
  mutable buf_head : int;
  mutable buf_len : int;
  mutable current_tick : int; (* tick of the buffered entries *)
  mutable cached_min : int; (* min prio over wheel slots (buffer excluded); -1 = unknown *)
  mutable size : int;
  mutable next_seq : int;
  dead : ('a -> bool) option;
  mutable dead_count : int; (* upper bound on dead entries still queued *)
}

let create ?dead () =
  {
    floor = 0;
    slots = Array.make (levels * slots_per_level) [];
    bitmap = Array.make (levels * words_per_level) 0;
    buf = [||];
    buf_head = 0;
    buf_len = 0;
    current_tick = 0;
    cached_min = -1;
    size = 0;
    next_seq = 0;
    dead;
    dead_count = 0;
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

(* Smallest occupied slot >= [from] at level [l], or -1. The scan is
   inclusive of [from]: mid-cascade the floor is a window start whose
   own slot may legitimately hold entries (ticks equal to the window
   start); in externally visible states the floor is a fired tick and
   its slots are empty, so inclusivity is harmless there. *)
let next_slot t l from =
  let base = l * words_per_level in
  let w0 = from lsr 5 in
  let rec go w =
    if w >= words_per_level then -1
    else begin
      let word = t.bitmap.(base + w) in
      let word = if w = w0 then word land lnot ((1 lsl (from land 31)) - 1) else word in
      if word = 0 then go (w + 1) else (w lsl 5) lor ctz32 word
    end
  in
  go w0

let level_of x =
  let rec go l x = if x < slots_per_level then l else go (l + 1) (x lsr slot_bits) in
  go 0 x

let[@lint.hot] wheel_insert t e =
  let l = level_of (e.prio lxor t.floor) in
  let s = (e.prio lsr (l * slot_bits)) land slot_mask in
  let idx = (l lsl slot_bits) lor s in
  (match t.slots.(idx) with [] -> set_bit t l s | _ -> ());
  (* Slots are intrusive-free lists by design: one cons per insert is
     the structure's storage, not incidental garbage. *)
  t.slots.(idx) <- (e :: t.slots.(idx) [@lint.allow "hot-path-alloc"])

(* Cascade re-inserts a drained slot's entries; a toplevel recursion
   instead of List.iter keeps the cascade path closure-free. *)
let[@lint.hot] rec reinsert t es =
  match es with
  | [] -> ()
  | e :: tl ->
      wheel_insert t e;
      reinsert t tl

let buf_active t = t.buf_head < t.buf_len

let buf_reset t =
  t.buf <- [||];
  t.buf_head <- 0;
  t.buf_len <- 0

let buf_append t e =
  if t.buf_len >= Array.length t.buf then begin
    let nbuf = Array.make (max 4 (2 * Array.length t.buf)) e in
    Array.blit t.buf 0 nbuf 0 t.buf_len;
    t.buf <- nbuf
  end;
  t.buf.(t.buf_len) <- e;
  t.buf_len <- t.buf_len + 1

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
  let e = { prio; seq = t.next_seq; value } in
  t.next_seq <- t.next_seq + 1;
  t.size <- t.size + 1;
  if buf_active t && prio = t.current_tick then buf_append t e
  else if (not (buf_active t)) && prio = t.floor then begin
    t.current_tick <- t.floor;
    buf_append t e
  end
  else begin
    wheel_insert t e;
    if t.cached_min >= 0 && prio < t.cached_min then t.cached_min <- prio
  end

let entry_compare a b = if a.prio <> b.prio then compare a.prio b.prio else compare a.seq b.seq

(* Move the frontier level-0 slot into the FIFO buffer. *)
let drain_slot t s =
  let entries = t.slots.(s) in
  t.slots.(s) <- [];
  clear_bit t 0 s;
  t.cached_min <- -1;
  let arr = Array.of_list entries in
  Array.sort entry_compare arr;
  let tick = arr.(0).prio in
  let n = Array.length arr in
  let k = ref 1 in
  while !k < n && arr.(!k).prio = tick do incr k done;
  if !k < n then begin
    (* Defensive: canonical placement keeps one tick per level-0 slot,
       but if later ticks ever cohabit, hand them back to the wheel. *)
    for i = !k to n - 1 do
      wheel_insert t arr.(i)
    done;
    t.buf <- Array.sub arr 0 !k
  end
  else t.buf <- arr;
  t.buf_head <- 0;
  t.buf_len <- !k;
  t.current_tick <- tick

(* Distribute a level-l slot into lower levels. Re-anchoring the floor
   at the slot's window start is what keeps the redistributed entries
   canonically placed: each one shares bytes > l with the window start,
   so its new level is strictly below l and the advance loop makes
   progress. Raising the floor here is safe because everything still
   queued is at or beyond the window start, and the floor is observed
   externally only after [pop] restores it to a fired tick. *)
let[@lint.hot] cascade t l s =
  let idx = (l lsl slot_bits) lor s in
  let entries = t.slots.(idx) in
  t.slots.(idx) <- [];
  clear_bit t l s;
  let above =
    if (l + 1) * slot_bits >= Sys.int_size - 1 then 0
    else t.floor land lnot ((1 lsl ((l + 1) * slot_bits)) - 1)
  in
  t.floor <- above lor (s lsl (l * slot_bits));
  reinsert t entries

(* Find the frontier slot: levels are scanned lowest first because a
   level-l entry shares all bytes above l with the floor, so anything at
   a lower level is earlier. Within a level the first occupied slot at
   or after the floor's byte is earliest. The result is the slot's index
   in [slots], (level lsl slot_bits) lor slot: an int, so returning it
   allocates nothing. *)
let rec frontier_from t l =
  if l >= levels then invalid_arg "Wheel: corrupt structure (size > 0 but no occupied slot)"
  else begin
    let cursor = (t.floor lsr (l * slot_bits)) land slot_mask in
    let s = next_slot t l cursor in
    if s < 0 then frontier_from t (l + 1) else (l lsl slot_bits) lor s
  end

let rec advance t =
  let idx = frontier_from t 0 in
  let l = idx lsr slot_bits in
  if l = 0 then drain_slot t idx
  else begin
    cascade t l (idx land slot_mask);
    advance t
  end

(* Min priority over wheel slots without mutating; the frontier slot at
   a level >= 1 spans a range of ticks, hence the fold. *)
let find_min t =
  List.fold_left
    (fun acc e -> if e.prio < acc then e.prio else acc)
    max_int
    t.slots.(frontier_from t 0)

let[@lint.hot] next_tick t =
  if buf_active t then t.current_tick
  else if t.size = 0 then max_int
  else begin
    if t.cached_min < 0 then t.cached_min <- find_min t;
    t.cached_min
  end

let[@lint.hot] rec pop t =
  if buf_active t then begin
    let e = t.buf.(t.buf_head) in
    t.buf_head <- t.buf_head + 1;
    if t.buf_head = t.buf_len then buf_reset t;
    t.floor <- t.current_tick;
    t.size <- t.size - 1;
    (match t.dead with
    | Some is_dead when is_dead e.value -> t.dead_count <- max 0 (t.dead_count - 1)
    | _ -> ());
    e.value
  end
  else if t.size = 0 then invalid_arg "Wheel.pop: empty wheel"
  else begin
    advance t;
    pop t
  end

let compact t =
  match t.dead with
  | None -> ()
  | Some is_dead ->
      let live = ref 0 in
      for idx = 0 to (levels * slots_per_level) - 1 do
        match t.slots.(idx) with
        | [] -> ()
        | entries ->
            let kept = List.filter (fun e -> not (is_dead e.value)) entries in
            t.slots.(idx) <- kept;
            (match kept with
            | [] -> clear_bit t (idx lsr slot_bits) (idx land slot_mask)
            | _ -> ());
            live := !live + List.length kept
      done;
      if buf_active t then begin
        let kept = ref [] in
        for i = t.buf_len - 1 downto t.buf_head do
          let e = t.buf.(i) in
          if not (is_dead e.value) then kept := e :: !kept
        done;
        match !kept with
        | [] -> buf_reset t
        | es ->
            let arr = Array.of_list es in
            t.buf <- arr;
            t.buf_head <- 0;
            t.buf_len <- Array.length arr;
            live := !live + Array.length arr
      end;
      t.size <- !live;
      t.dead_count <- 0;
      t.cached_min <- -1

let note_dead t =
  t.dead_count <- min t.size (t.dead_count + 1);
  if t.size >= compaction_floor && 2 * t.dead_count > t.size then compact t

let size t = t.size
let is_empty t = t.size = 0
let floor t = t.floor

let clear t =
  Array.fill t.slots 0 (Array.length t.slots) [];
  Array.fill t.bitmap 0 (Array.length t.bitmap) 0;
  buf_reset t;
  t.floor <- 0;
  t.current_tick <- 0;
  t.cached_min <- -1;
  t.size <- 0;
  t.dead_count <- 0
