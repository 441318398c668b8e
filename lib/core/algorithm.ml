open Types

(* Process and per-edge state lives in one Bytes table. Each pid owns a
   16-byte header followed by its row of 16-byte slot records, one per
   neighbor (the paper's subscript "ij" becomes an index into the CSR
   row of i, with Cgraph.Graph.slot_dst giving j): pid i's header sits
   at 16 (off i + i) and slot s of its row at 16 (s + i + 1). Section 7
   bounds a process's state by O(delta); stored together, a process and
   its records fill a line or two, so a message handler that reads its
   process's phase and writes the record of its slot touches one or two
   lines. The layout keeps the per-step work allocation-free:
   evaluating guards, sending and receiving touch only bytes, never
   tuples or hash tables.

   Header of pid i, at byte [head t i]:
     0       phase code
     1       inside: 0/1
     2       hints: ping_hint (1), fork_hint (2)
     3       unused
     4       color: 32-bit little-endian
     8       eats: 64-bit little-endian

   Record of slot s = (i, j), at byte [rec_at i s]:
     0       flags: the single-bit variables below
     1       granted: doorway acks granted to j this session
     2 + k   sent: messages of kind k that i sent to j
     6 + k   received: messages of kind k that i received from j
     10 + k  absorbed: messages of kind k from j absorbed after i crashed
     14, 15  unused
   The counters are 8-bit and wrap. The checks read only the messages
   in transit (sent on (i, j) minus received and absorbed on (j, i)),
   which Section 7 bounds by 4, and the absorbed counts, at most one
   per kind in a correct run; both are exact below 256, and
   [check_edge] compares them with Link_stats' unwrapped counts, so a
   wrap cannot pass unseen. [check_edge] reads each of [sent],
   [received] and [absorbed] as one 32-bit word of four 8-bit lanes,
   lane k for kind k ([lane_sub], [lane_sum]), so each must stay 4
   contiguous bytes in kind order. Every byte of a header and its row
   is written by its pid alone (a send by its sender, a receipt or
   absorption by its receiver, each in its own row), so the table is
   single-writer under sharded stepping.

   The hints cache which of Actions 2 and 6 can send anything.
   [ping_hint] covers the slots with neither pinged nor ack (Action 2's
   candidates), [fork_hint] those with the token but not the fork
   (Action 6's). A clear bit means its set is empty: [create] sets
   both bits; [set_flag], the only writer of flags after [create], sets
   a bit whenever its write puts a slot in that bit's set; and each
   action's loop, which runs only while its bit is set, takes every
   member it visits out of the set and clears the bit when it ends (its
   sends only post events and never re-enter the algorithm). The hints
   are derived state, not the paper's: [footprint_bits] does not count
   them, and [check_invariants] checks them against the flags.

   An accessor takes the byte offset [h] of a header or [r] of a
   record, which a handler computes once. *)

let rec_size = 16
let inside_at = 1
let hints_at = 2
let color_at = 4
let eats_at = 8
let granted_at = 1
let sent_at = 2
let received_at = 6
let absorbed_at = 10
let max_granted = 255

let pinged_bit = 1
let ack_bit = 2
let deferred_bit = 4
let fork_bit = 8
let token_bit = 16
let ping_hint = 1
let fork_hint = 2

(* Phases as byte codes; the constructors themselves are immediate, so
   decoding allocates nothing. *)
let phase_code = function Thinking -> 0 | Hungry -> 1 | Eating -> 2
let code_phase = function 0 -> Thinking | 1 -> Hungry | _ -> Eating

type t = {
  engine : Sim.Engine.t;
  faults : Net.Faults.t;
  graph : Cgraph.Graph.t;
  detector : Fd.Detector.t;
  n : int;
  off : int array; (* CSR offsets, owned by the graph *)
  nbr : pid array; (* CSR targets, owned by the graph *)
  rev : int array; (* slot (i,j) -> slot (j,i), owned by the graph *)
  max_color : int;
  color_bits : int; (* bits to store any color, at least 1 *)
  slots : Bytes.t; (* headers and slot records, see above *)
  requests : message array; (* color -> the one [Request color], shared by send and decode *)
  mutable net : message Net.Network.t option; (* set once in create *)
  mutable listeners : (pid -> phase -> unit) list;
  mutable doorway_listeners : (pid -> unit) list;
  acks_per_session : int;
}

let net t = match t.net with Some n -> n | None -> assert false
let now t = Sim.Engine.now t.engine
let[@lint.hot] rec_at i s = (s + i + 1) * rec_size
let[@lint.hot] head t i = (t.off.(i) + i) * rec_size
let get_phase t h = code_phase (Bytes.get_uint8 t.slots h)
let set_phase t h p = Bytes.set_uint8 t.slots h (phase_code p)
let get_inside t h = Bytes.get_uint8 t.slots (h + inside_at) <> 0
let set_inside t h b = Bytes.set_uint8 t.slots (h + inside_at) (Bool.to_int b)
let get_color t h = Int32.to_int (Bytes.get_int32_le t.slots (h + color_at))
let get_eats t h = Int64.to_int (Bytes.get_int64_le t.slots (h + eats_at))
let set_eats t h v = Bytes.set_int64_le t.slots (h + eats_at) (Int64.of_int v)
let phase t i = get_phase t (head t i)
let flag t r bit = Bytes.get_uint8 t.slots r land bit <> 0

(* The hints whose sets hold a slot with flags [f]. Comparisons, not
   branches: [f] varies from slot to slot. *)
let[@inline] hints_of f =
  (ping_hint * Bool.to_int (f land (pinged_bit lor ack_bit) = 0))
  lor (fork_hint * Bool.to_int (f land (token_bit lor fork_bit) = token_bit))

let hints t h = Bytes.get_uint8 t.slots (h + hints_at)

(* [h] is the header of the pid whose row holds [r]. Inlined: most
   call sites pass a constant [on], which then picks its branch at
   compile time. *)
let[@inline] set_flag t h r bit on =
  let cur = Bytes.get_uint8 t.slots r in
  let f = if on then cur lor bit else cur land lnot bit in
  Bytes.set_uint8 t.slots r f;
  let added = hints_of f land lnot (hints_of cur) in
  if added <> 0 then Bytes.set_uint8 t.slots (h + hints_at) (hints t h lor added)

let clear_hint t h hint = Bytes.set_uint8 t.slots (h + hints_at) (hints t h land lnot hint)

let granted t r = Bytes.get_uint8 t.slots (r + granted_at)
let set_granted t r v = Bytes.set_uint8 t.slots (r + granted_at) v

let bump t r field kind =
  let at = r + field + kind in
  Bytes.set_uint8 t.slots at ((Bytes.get_uint8 t.slots at + 1) land 0xFF)

let recorder t = Sim.Engine.recorder t.engine
let mark t i tag = Obs.Recorder.mark (recorder t) ~time:(now t) ~subject:i ~tag ""

(* [slot] is the directed slot of (src, dst) — the caller always has it
   in hand, either from its CSR iteration or via [rev] — and [r] its
   record. *)
let send t ~slot ~r ~src msg =
  bump t r sent_at (message_kind_index msg);
  Net.Network.send_slot (net t) ~src slot msg

(* A toplevel recursion rather than [List.iter (fun f -> f i p)]: no
   closure per phase transition. *)
let rec fire_listeners i p = function
  | [] -> ()
  | f :: rest ->
      f i p;
      fire_listeners i p rest

let rec fire_doorway_listeners i = function
  | [] -> ()
  | f :: rest ->
      f i;
      fire_doorway_listeners i rest

let notify_phase t i p =
  Obs.Recorder.phase (recorder t) ~time:(now t) ~pid:i ~phase:(Types.phase_to_string p);
  fire_listeners i p t.listeners

(* ------------------------------------------------------------------ *)
(* Guarded internal actions (Actions 2, 5, 6, 9).                      *)
(* ------------------------------------------------------------------ *)

let suspects t s = t.detector.Fd.Detector.suspects s

(* The ∀-guards of Actions 5 and 9: every slot of i from [s] to [hi]
   holds [bit] or is suspected. Stops at the first blocker; [suspects]
   is a pure read, so skipping the calls after it changes nothing. *)
let[@lint.hot] rec all_held t i bit s hi =
  s >= hi || ((flag t (rec_at i s) bit || suspects t s) && all_held t i bit (s + 1) hi)

(* Action 2: request acks from neighbors with no ack and no pending
   ping. Runs only while [ping_hint] says some slot may qualify. *)
let[@inline][@lint.hot] ping_missing t i h lo hi =
  if hints t h land ping_hint <> 0 then begin
    for s = lo to hi - 1 do
      let r = rec_at i s in
      if not (flag t r (pinged_bit lor ack_bit)) then begin
        set_flag t h r pinged_bit true;
        send t ~slot:s ~r ~src:i Ping
      end
    done;
    clear_hint t h ping_hint
  end

(* Action 6: request each missing fork by surrendering the edge token,
   carrying our color. Runs only while [fork_hint] says some slot may
   qualify. *)
let[@inline][@lint.hot] request_missing t i h lo hi =
  if hints t h land fork_hint <> 0 then begin
    let request = t.requests.(get_color t h) in
    for s = lo to hi - 1 do
      let r = rec_at i s in
      if flag t r token_bit && not (flag t r fork_bit) then begin
        set_flag t h r token_bit false;
        send t ~slot:s ~r ~src:i request
      end
    done;
    clear_hint t h fork_hint
  end

(* Evaluate all enabled internal actions of [i]. Idempotent: every send is
   gated by a flag it sets, and each phase transition fires at most once
   per hungry session, so re-evaluation on every event is safe. *)
let try_actions t i =
  if not (Net.Faults.is_crashed t.faults i) then begin
    let h = head t i in
    if get_phase t h = Hungry then begin
      let lo = t.off.(i) and hi = t.off.(i + 1) in
      if not (get_inside t h) then begin
        ping_missing t i h lo hi;
        (* Action 5: enter the doorway once every neighbor granted an ack
           or is suspected. *)
        if all_held t i ack_bit lo hi then begin
          set_inside t h true;
          for s = lo to hi - 1 do
            let r = rec_at i s in
            set_flag t h r ack_bit false;
            set_granted t r 0
          done;
          mark t i "enter_doorway";
          fire_doorway_listeners i t.doorway_listeners
        end
      end;
      if get_inside t h then begin
        request_missing t i h lo hi;
        (* Action 9: eat once every neighbor's fork is held or the
           neighbor is suspected. *)
        if all_held t i fork_bit lo hi then begin
          set_phase t h Eating;
          set_eats t h (get_eats t h + 1);
          notify_phase t i Eating
        end
      end
    end
  end

(* ------------------------------------------------------------------ *)
(* Message handlers (Actions 3, 4, 7, 8). [k] is the directed slot of  *)
(* (i, j): the receiver's row position for the sender j, which is also *)
(* the send slot for any reply; [h] is i's header and [r] k's record.  *)
(* ------------------------------------------------------------------ *)

(* Action 3: grant or defer a doorway ack. The paper grants at most one
   ack per neighbor per hungry session (yielding eventual 2-bounded
   waiting, Theorem 3); [acks_per_session] generalises that budget to m,
   yielding eventual (m+1)-bounded waiting — the fairness knob studied by
   experiment E11. Thinking processes grant unconditionally, as in the
   paper. *)
let receive_ping t i ~k ~h ~r =
  let hungry = get_phase t h = Hungry in
  if get_inside t h || (hungry && granted t r >= t.acks_per_session) then
    set_flag t h r deferred_bit true
  else begin
    send t ~slot:k ~r ~src:i Ack;
    if hungry then set_granted t r (granted t r + 1)
  end

(* Action 4: record a received ack. *)
let receive_ack t i ~h ~r =
  set_flag t h r ack_bit (get_phase t h = Hungry && not (get_inside t h));
  set_flag t h r pinged_bit false;
  try_actions t i

(* Action 7: receive a fork request (the edge token) and grant or defer. *)
let receive_request t i ~k ~h ~r ~color:color_j =
  (* Lemma 1.1: the recipient of a fork request holds the requested fork. *)
  if not (flag t r fork_bit) then
    raise
      (Invariant_violation
         (Printf.sprintf "Lemma 1.1: %d received a fork request from %d without the fork" i
            t.nbr.(k)));
  set_flag t h r token_bit true;
  if (not (get_inside t h)) || (get_phase t h = Hungry && get_color t h < color_j) then begin
    set_flag t h r fork_bit false;
    send t ~slot:k ~r ~src:i Fork
  end;
  (* Losing a fork while hungry inside re-enables Action 6. *)
  try_actions t i

(* Action 8: receive a fork. *)
let receive_fork t i ~k ~h ~r =
  (* Per the proof of Lemma 1.1: a fork recipient cannot hold the token. *)
  if flag t r token_bit then
    raise
      (Invariant_violation
         (Printf.sprintf "Lemma 1.1: %d received the fork from %d while holding the token" i
            t.nbr.(k)));
  if flag t r fork_bit then
    raise
      (Invariant_violation
         (Printf.sprintf "Lemma 1.2: duplicated fork on edge (%d,%d)" i t.nbr.(k)));
  set_flag t h r fork_bit true;
  try_actions t i

(* Messages as ints (Section 7 bounds them at O(log n) bits): Ping 0,
   Ack 1, Fork 3 and [Request c] 2 + 4c. Decoding a request returns the
   preallocated one for its color, so neither direction allocates. *)
let encode = function Ping -> 0 | Ack -> 1 | Request c -> 2 + (4 * c) | Fork -> 3

let decode t code =
  match code land 3 with
  | 0 -> Ping
  | 1 -> Ack
  | 2 -> t.requests.(code lsr 2)
  | _ -> Fork

(* [slot] is the message's channel (src, dst); the receiver's own slot
   for the sender is its reverse. *)
let[@lint.hot] dispatch t ~dst ~slot msg =
  let k = t.rev.(slot) in
  let h = head t dst and r = rec_at dst k in
  bump t r received_at (message_kind_index msg);
  match msg with
  | Ping -> receive_ping t dst ~k ~h ~r
  | Ack -> receive_ack t dst ~h ~r
  | Request color -> receive_request t dst ~k ~h ~r ~color
  | Fork -> receive_fork t dst ~k ~h ~r

(* ------------------------------------------------------------------ *)
(* External actions (Actions 1 and 10).                                *)
(* ------------------------------------------------------------------ *)

let become_hungry t i =
  if not (Net.Faults.is_crashed t.faults i) then begin
    let h = head t i in
    if get_phase t h = Thinking then begin
      set_phase t h Hungry;
      notify_phase t i Hungry;
      try_actions t i
    end
  end

(* Action 10: exit the critical section and the doorway; grant all
   deferred fork requests and deferred acks. *)
let stop_eating t i =
  if not (Net.Faults.is_crashed t.faults i) then begin
    let h = head t i in
    if get_phase t h = Eating then begin
      set_inside t h false;
      set_phase t h Thinking;
      let lo = t.off.(i) and hi = t.off.(i + 1) in
      for s = lo to hi - 1 do
        let r = rec_at i s in
        if flag t r token_bit && flag t r fork_bit then begin
          set_flag t h r fork_bit false;
          send t ~slot:s ~r ~src:i Fork
        end
      done;
      for s = lo to hi - 1 do
        let r = rec_at i s in
        if flag t r deferred_bit then begin
          set_flag t h r deferred_bit false;
          send t ~slot:s ~r ~src:i Ack
        end
      done;
      notify_phase t i Thinking
    end
  end

(* ------------------------------------------------------------------ *)
(* Construction.                                                       *)
(* ------------------------------------------------------------------ *)

(* Bits needed to store the values 0..v, at least 1. *)
let bit_width v =
  let rec go acc v = if v <= 0 then max acc 1 else go (acc + 1) (v lsr 1) in
  go 0 v

let create ~engine ~faults ~graph ~delay ~rng ~detector ?colors ?metrics ?(acks_per_session = 1)
    () =
  if acks_per_session < 1 then invalid_arg "Algorithm.create: acks_per_session must be >= 1";
  (* [granted] is one byte of the slot record. *)
  if acks_per_session > max_granted then
    invalid_arg "Algorithm.create: acks_per_session must be <= 255";
  let n = Cgraph.Graph.n graph in
  let colors =
    match colors with
    | Some c ->
        if not (Cgraph.Coloring.is_proper graph c) then
          invalid_arg "Algorithm.create: colors must be a proper coloring";
        c
    | None -> Cgraph.Coloring.greedy graph
  in
  let max_color = Array.fold_left max 0 colors in
  let off = Cgraph.Graph.csr_offsets graph in
  let nbr = Cgraph.Graph.csr_targets graph in
  (* Phase Thinking, outside, no eats and every counter zero are all
     zero bytes: only colors, both hints and the initial forks and
     tokens are written. A set hint is always sound; the first pass of
     its action clears it. The headers keep the colors, so [colors] is
     not kept. *)
  let slots = Bytes.make ((Cgraph.Graph.dir_count graph + n) * rec_size) '\000' in
  for i = 0 to n - 1 do
    let ci = colors.(i) in
    let h = (off.(i) + i) * rec_size in
    Bytes.set_uint8 slots (h + hints_at) (ping_hint lor fork_hint);
    Bytes.set_int32_le slots (h + color_at) (Int32.of_int ci);
    for s = off.(i) to off.(i + 1) - 1 do
      let cj = colors.(nbr.(s)) in
      (* The fork starts at the higher-colored endpoint, the token at
         the lower-colored one. *)
      let bits = (if ci > cj then fork_bit else 0) lor if ci < cj then token_bit else 0 in
      Bytes.set_uint8 slots (rec_at i s) bits
    done
  done;
  let t =
    {
      engine;
      faults;
      graph;
      detector;
      n;
      off;
      nbr;
      rev = Cgraph.Graph.rev_slots graph;
      max_color;
      color_bits = bit_width max_color;
      slots;
      requests = Array.init (max_color + 1) (fun c -> Request c);
      net = None;
      listeners = [];
      doorway_listeners = [];
      acks_per_session;
    }
  in
  let network =
    Net.Network.create_slotted ~engine ~graph ~delay ~faults ~rng ~kind:message_kind
      ~on_drop:(fun ~dst ~slot msg ->
        bump t (rec_at dst t.rev.(slot)) absorbed_at (message_kind_index msg))
      ?metrics
      ~codec:(encode, fun code -> decode t code)
      ~handler:(fun ~dst ~slot msg -> dispatch t ~dst ~slot msg)
      ()
  in
  t.net <- Some network;
  detector.Fd.Detector.subscribe (fun observer ->
      if observer >= 0 && observer < n then try_actions t observer);
  t

(* ------------------------------------------------------------------ *)
(* Introspection.                                                      *)
(* ------------------------------------------------------------------ *)

let inside_doorway t i = get_inside t (head t i)
let color t i = get_color t (head t i)
let holds_fork t i j = flag t (rec_at i (Cgraph.Graph.dir_index t.graph i j)) fork_bit
let holds_token t i j = flag t (rec_at i (Cgraph.Graph.dir_index t.graph i j)) token_bit
let eat_count t i = get_eats t (head t i)

let total_eats t =
  let acc = ref 0 in
  for i = 0 to t.n - 1 do
    acc := !acc + eat_count t i
  done;
  !acc

let add_listener t f = t.listeners <- t.listeners @ [ f ]
let network_stats t = Net.Network.stats (net t)

let footprint_bits t i = 2 + 1 + t.color_bits + (6 * Cgraph.Graph.degree t.graph i)

let max_message_bits t =
  List.fold_left
    (fun acc m -> max acc (message_bits ~n:t.n m))
    0
    [ Ping; Ack; Request t.max_color; Fork ]

(* ------------------------------------------------------------------ *)
(* Executable lemmas.                                                  *)
(* ------------------------------------------------------------------ *)

(* The checks are toplevel functions of [t], and the edges are walked
   as CSR rows (each edge once, from its lower endpoint, in the
   ascending (u, v) order of [Cgraph.Graph.iter_edges]), so a check
   that passes allocates nothing. *)
let fail fmt = Format.kasprintf (fun s -> raise (Invariant_violation s)) fmt
let ping_k = 0
let ack_k = 1
let request_k = 2
let fork_k = 3

(* Lane arithmetic on 32-bit words of four 8-bit counters. The
   subtraction is SWAR: each lane's high bit is set in [a] and cleared
   in [b], so no lane borrows from the next, and the xor restores each
   lane's true high bit. They live here, not in Types, so that the
   check inlines them: cross-module calls are not inlined under
   -opaque. *)
let lane_sub a b =
  ((a lor 0x80808080) - (b land 0x7f7f7f7f)) lxor ((a lxor lnot b) land 0x80808080)

let lane_sum w =
  let pairs = (w land 0x00ff00ff) + ((w lsr 8) land 0x00ff00ff) in
  (pairs land 0xffff) + (pairs lsr 16)

(* The four per-kind counters of [field] in the record at [r] as one
   word, lane k for kind k. *)
let lanes t r field = Int32.to_int (Bytes.get_int32_le t.slots (r + field)) land 0xFFFF_FFFF

let lane w kind = (w lsr (8 * kind)) land 0xFF

(* Every term below is a count of one kind on the edge (i, j), with si
   = (i, j) and sj = (j, i). [abs_j] holds the messages i sent that
   crashed j absorbed, [fly_ij] those still in transit from i to j
   (sent on si minus received and absorbed on sj, lane by lane mod 256:
   exact below 256), and symmetrically for the other direction. *)
let[@lint.hot] check_edge t stats i j si =
  let ri = rec_at i si and rj = rec_at j t.rev.(si) in
  let fi = Bytes.get_uint8 t.slots ri in
  let fj = Bytes.get_uint8 t.slots rj in
  let abs_i = lanes t ri absorbed_at and abs_j = lanes t rj absorbed_at in
  let fly_ij = lane_sub (lane_sub (lanes t ri sent_at) (lanes t rj received_at)) abs_j in
  let fly_ji = lane_sub (lane_sub (lanes t rj sent_at) (lanes t ri received_at)) abs_i in
  (* Lemma 1.2 for forks, extended to crash absorption: exactly one
     fork per edge, wherever it is. *)
  let forks =
    Bool.to_int (fi land fork_bit <> 0)
    + Bool.to_int (fj land fork_bit <> 0)
    + lane fly_ij fork_k + lane fly_ji fork_k + lane abs_j fork_k + lane abs_i fork_k
  in
  if forks <> 1 then fail "edge (%d,%d): %d forks (expected exactly 1)" i j forks;
  (* Same conservation for the edge token. *)
  let tokens =
    Bool.to_int (fi land token_bit <> 0)
    + Bool.to_int (fj land token_bit <> 0)
    + lane fly_ij request_k + lane fly_ji request_k + lane abs_j request_k
    + lane abs_i request_k
  in
  if tokens <> 1 then fail "edge (%d,%d): %d tokens (expected exactly 1)" i j tokens;
  (* Lemma 2.2: [pinged] on (i, j) reflects exactly one pending ping:
     i's ping in transit or absorbed, deferred by j, or answered by j's
     ack in transit or absorbed; and symmetrically on (j, i). *)
  let pending_ij =
    lane fly_ij ping_k + lane abs_j ping_k
    + Bool.to_int (fj land deferred_bit <> 0)
    + lane fly_ji ack_k + lane abs_i ack_k
  in
  if pending_ij <> Bool.to_int (fi land pinged_bit <> 0) then
    fail "pair (%d,%d): pinged=%b but %d pending ping/ack artifacts" i j
      (fi land pinged_bit <> 0) pending_ij;
  let pending_ji =
    lane fly_ji ping_k + lane abs_i ping_k
    + Bool.to_int (fi land deferred_bit <> 0)
    + lane fly_ij ack_k + lane abs_j ack_k
  in
  if pending_ji <> Bool.to_int (fj land pinged_bit <> 0) then
    fail "pair (%d,%d): pinged=%b but %d pending ping/ack artifacts" j i
      (fj land pinged_bit <> 0) pending_ji;
  (* The wrapped counters against the network's exact ones: a count
     that wrapped past 255 cannot pass. *)
  let in_transit = lane_sum fly_ij + lane_sum fly_ji in
  let exact = Net.Link_stats.edge_in_flight stats si in
  if in_transit <> exact then
    fail "edge (%d,%d): %d messages in transit by the slot counters, %d by the network" i j
      in_transit exact;
  let lost = lane_sum abs_i + lane_sum abs_j in
  let exact_lost = Net.Link_stats.edge_dropped stats si in
  if lost <> exact_lost then
    fail "edge (%d,%d): %d messages absorbed by the slot counters, %d by the network" i j lost
      exact_lost;
  (* Section 7: at most 4 dining messages in transit per edge. *)
  if in_transit > 4 then fail "edge (%d,%d): %d messages in transit (> 4)" i j in_transit

let[@lint.hot] check_invariants t =
  for i = 0 to t.n - 1 do
    let h = head t i in
    let p = get_phase t h and inside = get_inside t h in
    if p = Eating && not inside then fail "process %d eats outside the doorway" i;
    let clear = (ping_hint lor fork_hint) land lnot (hints t h) in
    for s = t.off.(i) to t.off.(i + 1) - 1 do
      let f = Bytes.get_uint8 t.slots (rec_at i s) in
      if f land ack_bit <> 0 && not (p = Hungry && not inside) then
        fail "process %d holds an ack while not hungry-outside" i;
      (* The hint lemma: a clear hint means its set is empty. *)
      if clear <> 0 then begin
        let unhinted = hints_of f land clear in
        if unhinted land ping_hint <> 0 then
          fail "hint: process %d has ping_hint clear but slot to %d has neither pinged nor ack" i
            t.nbr.(s);
        if unhinted land fork_hint <> 0 then
          fail "hint: process %d has fork_hint clear but holds the token without the fork of %d"
            i t.nbr.(s)
      end
    done
  done;
  let stats = Net.Network.stats (net t) in
  for i = 0 to t.n - 1 do
    for si = t.off.(i) to t.off.(i + 1) - 1 do
      let j = t.nbr.(si) in
      if j > i then check_edge t stats i j si
    done
  done

let pp_process t ppf i =
  let h = head t i in
  Format.fprintf ppf "p%d %s%s c=%d |" i
    (Types.phase_to_string (get_phase t h))
    (if get_inside t h then " inside" else "")
    (get_color t h);
  for s = t.off.(i) to t.off.(i + 1) - 1 do
    let r = rec_at i s in
    let bit b ch = if b then Char.uppercase_ascii ch else ch in
    Format.fprintf ppf " %d:%c%c%c%c%c%c" t.nbr.(s)
      (bit (flag t r pinged_bit) 'p')
      (bit (flag t r ack_bit) 'a')
      (bit (granted t r > 0) 'r')
      (bit (flag t r deferred_bit) 'd')
      (bit (flag t r fork_bit) 'f')
      (bit (flag t r token_bit) 't')
  done

let pp_global t ppf () =
  for i = 0 to t.n - 1 do
    pp_process t ppf i;
    if Net.Faults.is_crashed t.faults i then Format.pp_print_string ppf "  [crashed]";
    Format.pp_print_newline ppf ()
  done

let instance t =
  {
    Instance.name = "song-pike-" ^ t.detector.Fd.Detector.name;
    become_hungry = become_hungry t;
    stop_eating = stop_eating t;
    phase = phase t;
    add_listener = add_listener t;
    add_doorway_listener = (fun f -> t.doorway_listeners <- t.doorway_listeners @ [ f ]);
    check_invariants = (fun () -> check_invariants t);
  }
