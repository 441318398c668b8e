type 'a entry = { prio : int; seq : int; value : 'a }

type 'a t = {
  mutable heap : 'a entry array; (* heap.(0) unused when size = 0 *)
  mutable size : int;
  mutable next_seq : int;
}

let create () = { heap = [||]; size = 0; next_seq = 0 }

let less a b = a.prio < b.prio || (a.prio = b.prio && a.seq < b.seq)

(* Only called with a non-empty heap; slots >= size are never read. *)
let grow t =
  assert (t.size > 0);
  let ncap = Array.length t.heap * 2 in
  let nheap = Array.make ncap t.heap.(0) in
  Array.blit t.heap 0 nheap 0 t.size;
  t.heap <- nheap

let add t ~prio value =
  if prio < 0 then invalid_arg "Pqueue.add: negative priority";
  (* Mirror of Wheel.add: [max_int] is [Sim.Time.infinity], the "never"
     sentinel, not a schedulable tick. *)
  if prio = max_int then
    invalid_arg "Pqueue.add: prio = max_int is Time.infinity (event would never fire)";
  let entry = { prio; seq = t.next_seq; value } in
  t.next_seq <- t.next_seq + 1;
  if t.size >= Array.length t.heap then begin
    if Array.length t.heap = 0 then t.heap <- Array.make 16 entry else grow t
  end;
  let i = ref t.size in
  t.size <- t.size + 1;
  t.heap.(!i) <- entry;
  (* Sift up. *)
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if less t.heap.(!i) t.heap.(parent) then begin
      let tmp = t.heap.(parent) in
      t.heap.(parent) <- t.heap.(!i);
      t.heap.(!i) <- tmp;
      i := parent
    end
    else continue := false
  done

let sift_down t =
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let smallest = ref !i in
    if l < t.size && less t.heap.(l) t.heap.(!smallest) then smallest := l;
    if r < t.size && less t.heap.(r) t.heap.(!smallest) then smallest := r;
    if !smallest <> !i then begin
      let tmp = t.heap.(!smallest) in
      t.heap.(!smallest) <- t.heap.(!i);
      t.heap.(!i) <- tmp;
      i := !smallest
    end
    else continue := false
  done

let pop t =
  if t.size = 0 then None
  else begin
    let top = t.heap.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.heap.(0) <- t.heap.(t.size);
      sift_down t
    end;
    Some (top.prio, top.value)
  end

let peek_prio t = if t.size = 0 then None else Some t.heap.(0).prio
let size t = t.size
let is_empty t = t.size = 0

let clear t =
  t.size <- 0;
  t.heap <- [||]
