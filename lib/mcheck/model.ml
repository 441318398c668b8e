type config = {
  graph : Cgraph.Graph.t;
  colors : int array;
  sessions : int;
  crash_budget : int;
  fp_budget : int;
}

exception Model_violation of string

type action =
  | Act_local of { pid : int; tag : string }
  | Act_deliver of { src : int; dst : int }
  | Act_drop of { src : int; dst : int }
  | Act_crash of { pid : int }
  | Act_detect of { observer : int; target : int }
  | Act_fp of { observer : int; target : int }

(* ------------------------------------------------------------------ *)
(* Layout. A state is one immutable string whose fields sit at fixed   *)
(* offsets computed once per config. Directed slots are the graph's   *)
(* CSR positions: slot s is the pair (i, dst.(s)) for the i owning s.  *)
(*                                                                    *)
(*   0            crash budget left                       uint16      *)
(*   2            fp budget left                          uint16      *)
(*   4 + 3i       process i: phase (bits 0-1), inside (4), crashed (8)*)
(*   5 + 3i       process i: sessions left                uint16      *)
(*   slots_at+s   slot s flags: pinged, ack, replied, deferred, fork, *)
(*                token, susp (bits 0-6)                              *)
(*   chans_at+2s  channel s: length (bits 0-2), then a 2-bit code per *)
(*                message from bit 3, head first          uint16      *)
(*   abs_at+4s+c  messages of code c absorbed on channel s  uint8     *)
(*                                                                    *)
(* Every bit is either meaningful or zero, so equal states are equal   *)
(* strings and the string is its own canonical key.                   *)
(* ------------------------------------------------------------------ *)

type layout = {
  n : int;
  colors : int array;
  fp_accurate : bool; (* fp budget 0: weak exclusion is asserted *)
  off : int array; (* CSR row offsets, length n + 1 *)
  dst : int array; (* slot -> destination *)
  rev : int array; (* slot -> slot of the reverse pair, owned by the graph *)
  eu : int array; (* edges in Graph.iter_edges order: endpoints ... *)
  ev : int array;
  esu : int array; (* ... and the slots (u, v) and (v, u) *)
  esv : int array;
  local : (action * string) array; (* pid * n_local + local kind *)
  per_slot : (action * string) array; (* slot * n_slot + slot kind *)
  hi_col : int array; (* slot -> 1 if its owner has the higher colour, else 0 *)
  fp_radix : int; (* rank radices: fp budget + 1, bound of r + 1, ... *)
  r_radix : int;
  x_radix : int; (* ... bound of x + 1 *)
  slots_at : int;
  chans_at : int;
  abs_at : int;
  size : int;
}

type state = { lay : layout; bytes : string }

(* process flag bits *)
let phase_mask = 3
let inside_bit = 4
let crashed_bit = 8

(* slot flag bits *)
let pinged = 1
let ack = 2
let replied = 4
let deferred = 8
let fork = 16
let token = 32
let susp = 64

(* message codes; R carries no payload: its colour is the sender's *)
let code_p = 0
let code_a = 1
let code_r = 2
let code_f = 3
let chan_capacity = 6 (* 3 length bits + 6 * 2 code bits fit in 16 *)
let max_absorbed = 255
let max_counter = 0xFFFF

(* local transition kinds, in enumeration order *)
let local_tags = [| "hungry"; "a2"; "a5"; "a6"; "a9"; "a10" |]
let n_local = Array.length local_tags + 1 (* + crash *)
let k_hungry = 0
let k_a2 = 1
let k_a5 = 2
let k_a6 = 3
let k_a9 = 4
let k_a10 = 5
let k_crash = 6

(* per-slot transition kinds *)
let n_slot = 4
let k_detect = 0
let k_fp = 1
let k_drop = 2
let k_deliver = 3
let proc_at i = 4 + (3 * i)

(* Bound of one slot's share of the rank's x: 1 + 2 + 4 + 6 for its
   flag terms, 5 for each of at most [chan_capacity] queued messages. *)
let x_per_slot = 13 + (5 * chan_capacity)

let make_layout cfg =
  let g = cfg.graph in
  let n = Cgraph.Graph.n g in
  let off = Cgraph.Graph.csr_offsets g and dst = Cgraph.Graph.csr_targets g in
  let d = Array.length dst in
  let src = Array.make d 0 in
  for i = 0 to n - 1 do
    Array.fill src off.(i) (off.(i + 1) - off.(i)) i
  done;
  let edges = ref [] in
  Cgraph.Graph.iter_edges g (fun u v -> edges := (u, v) :: !edges);
  let edges = Array.of_list (List.rev !edges) in
  let eu = Array.map fst edges and ev = Array.map snd edges in
  let local =
    Array.init (n * n_local) (fun x ->
        let pid = x / n_local and k = x mod n_local in
        if k = k_crash then (Act_crash { pid }, Printf.sprintf "crash(%d)" pid)
        else
          let tag = local_tags.(k) in
          (Act_local { pid; tag }, Printf.sprintf "%s(%d)" tag pid))
  in
  let per_slot =
    Array.init (d * n_slot) (fun x ->
        let s = x / n_slot in
        let i = src.(s) and j = dst.(s) in
        match x mod n_slot with
        | 0 -> (Act_detect { observer = i; target = j }, Printf.sprintf "detect(%d,%d)" i j)
        | 1 -> (Act_fp { observer = i; target = j }, Printf.sprintf "fp(%d,%d)" i j)
        | 2 -> (Act_drop { src = i; dst = j }, Printf.sprintf "drop(%d->%d)" i j)
        | _ -> (Act_deliver { src = i; dst = j }, Printf.sprintf "deliver(%d->%d)" i j))
  in
  let slots_at = proc_at n in
  let chans_at = slots_at + d in
  let abs_at = chans_at + (2 * d) in
  {
    n;
    colors = Array.copy cfg.colors;
    fp_accurate = cfg.fp_budget = 0;
    off;
    dst;
    rev = Cgraph.Graph.rev_slots g;
    eu;
    ev;
    esu = Array.map2 (Cgraph.Graph.dir_index g) eu ev;
    esv = Array.map2 (Cgraph.Graph.dir_index g) ev eu;
    local;
    per_slot;
    hi_col = Array.init d (fun s -> if cfg.colors.(src.(s)) > cfg.colors.(dst.(s)) then 1 else 0);
    fp_radix = max 0 cfg.fp_budget + 1;
    r_radix = (n * ((4 * max 0 cfg.sessions) + 3)) + 1;
    x_radix = (x_per_slot * d) + 1;
    slots_at;
    chans_at;
    abs_at;
    size = abs_at + (4 * d);
  }

let initial cfg =
  if not (Cgraph.Coloring.is_proper cfg.graph cfg.colors) then
    invalid_arg "Mcheck: colors must be proper";
  if max cfg.sessions (max cfg.crash_budget cfg.fp_budget) > max_counter then
    invalid_arg "Mcheck: sessions and budgets must be at most 65535";
  let lay = make_layout cfg in
  if max 0 cfg.crash_budget + 1 > max_int / lay.fp_radix / lay.r_radix / lay.x_radix then
    invalid_arg "Mcheck: the rank of this config overflows an int";
  let b = Bytes.make lay.size '\000' in
  (* Only [> 0] is ever asked of a counter, so a negative one is 0. *)
  Bytes.set_uint16_le b 0 (max 0 cfg.crash_budget);
  Bytes.set_uint16_le b 2 (max 0 cfg.fp_budget);
  for i = 0 to lay.n - 1 do
    Bytes.set_uint16_le b (proc_at i + 1) (max 0 cfg.sessions);
    for s = lay.off.(i) to lay.off.(i + 1) - 1 do
      let ci = lay.colors.(i) and cj = lay.colors.(lay.dst.(s)) in
      Bytes.set_uint8 b (lay.slots_at + s) (if ci > cj then fork else token)
    done
  done;
  { lay; bytes = Bytes.unsafe_to_string b }

(* ------------------------------------------------------------------ *)
(* Field access. Successors are built by copying the parent's string,  *)
(* writing the copy, and freezing it: a published state is never      *)
(* written again (visited sets keep its bytes as the key).             *)
(* ------------------------------------------------------------------ *)

let pflags st i = String.get_uint8 st (proc_at i)
let flags lay st s = String.get_uint8 st (lay.slots_at + s)
let set_flags lay b s v = Bytes.set_uint8 b (lay.slots_at + s) v
let chan lay st s = String.get_uint16_le st (lay.chans_at + (2 * s))
let absorbed lay st s code = String.get_uint8 st (lay.abs_at + (4 * s) + code)
let src_of lay s = lay.dst.(lay.rev.(s))
let local lay pid k = lay.local.((pid * n_local) + k)
let slot_act lay s k = lay.per_slot.((s * n_slot) + k)

let push lay b s code =
  let at = lay.chans_at + (2 * s) in
  let ch = Bytes.get_uint16_le b at in
  let len = ch land 7 in
  if len >= chan_capacity then
    raise
      (Model_violation
         (Printf.sprintf "channel %d->%d: more than %d messages queued" (src_of lay s)
            lay.dst.(s) chan_capacity));
  Bytes.set_uint16_le b at (ch + 1 + (code lsl (3 + (2 * len))))

(* Remove the head of a non-empty channel, returning its code. *)
let pop lay b s =
  let at = lay.chans_at + (2 * s) in
  let ch = Bytes.get_uint16_le b at in
  Bytes.set_uint16_le b at ((ch land 7) - 1 + ((ch lsr 5) lsl 3));
  (ch lsr 3) land 3

let absorb lay b s code =
  let at = lay.abs_at + (4 * s) + code in
  let c = Bytes.get_uint8 b at in
  if c >= max_absorbed then
    raise
      (Model_violation
         (Printf.sprintf "channel %d->%d: more than %d messages absorbed" (src_of lay s)
            lay.dst.(s) max_absorbed));
  Bytes.set_uint8 b at (c + 1)

(* ------------------------------------------------------------------ *)
(* Delivery handlers (Actions 3, 4, 7, 8) of a message on slot s,      *)
(* written into a fresh copy [b].                                       *)
(* ------------------------------------------------------------------ *)

let handle lay b s code =
  let r = lay.rev.(s) in
  let dst = lay.dst.(s) and src = lay.dst.(r) in
  let pf = Bytes.get_uint8 b (proc_at dst) in
  let phase = pf land phase_mask and inside = pf land inside_bit <> 0 in
  let f = Bytes.get_uint8 b (lay.slots_at + r) in
  if code = code_p then begin
    if inside || f land replied <> 0 then set_flags lay b r (f lor deferred)
    else begin
      push lay b r code_a;
      if phase = 1 then set_flags lay b r (f lor replied)
    end
  end
  else if code = code_a then
    set_flags lay b r
      ((f land lnot (pinged lor ack)) lor if phase = 1 && not inside then ack else 0)
  else if code = code_r then begin
    if f land fork = 0 then
      raise (Model_violation (Printf.sprintf "Lemma 1.1: %d requested fork %d lacks" src dst));
    if (not inside) || (phase = 1 && lay.colors.(dst) < lay.colors.(src)) then begin
      set_flags lay b r ((f lor token) land lnot fork);
      push lay b r code_f
    end
    else set_flags lay b r (f lor token)
  end
  else begin
    if f land token <> 0 then
      raise (Model_violation (Printf.sprintf "Lemma 1.1: %d got fork holding token" dst));
    if f land fork <> 0 then
      raise (Model_violation (Printf.sprintf "Lemma 1.2: duplicated fork at %d" dst));
    set_flags lay b r (f lor fork)
  end

(* ------------------------------------------------------------------ *)
(* Rank: every transition strictly lowers (crash budget left, fp       *)
(* budget left, r, x), lexicographically, so the model is acyclic.     *)
(*   r = sum over i of 4 * sessions left + stage (Thinking 0, Eating  *)
(*       1, Hungry inside 2, Hungry outside 3);                        *)
(*   x = sum over slots s = (i, j) of [j crashed, not suspected]       *)
(*       + 2 deferred(s) + 4 [i live, Hungry, outside, s neither       *)
(*       pinged nor acked] + (v + 1) [i live, Hungry, inside, token    *)
(*       without fork] + 3 #P + #A + v #R + #F on channel s,           *)
(*       with v = 5 if colour i > colour j, else 2.                    *)
(* EXPERIMENTS.md lists the part each action lowers. Each term is a   *)
(* function of a few bits, read from a table built from its           *)
(* definition, so a rank takes no data-dependent branch.              *)
(* ------------------------------------------------------------------ *)

(* 1 for a live process hungry outside the doorway, 2 inside, else 0 *)
let hunger pf = if pf land (phase_mask lor crashed_bit) <> 1 then 0 else 1 + ((pf lsr 2) land 1)

(* proc_terms.[pf land 15] is stage + 4 * hunger *)
let proc_terms =
  String.init 16 (fun pf ->
      let stage = match pf land phase_mask with 0 -> 0 | 2 -> 1 | _ -> 3 - ((pf lsr 2) land 1) in
      Char.chr (stage + (4 * hunger pf)))

(* slot_terms.[(hunger lsl 9) lor (j crashed lsl 8) lor (hi lsl 7) lor
   flags] is the slot's flag terms; hi: the owner has the higher colour *)
let slot_terms =
  String.init (3 * 512) (fun x ->
      let h = x lsr 9 and f = x land 127 in
      Char.chr
        ((if x land 256 <> 0 && f land susp = 0 then 1 else 0)
        + (if f land deferred <> 0 then 2 else 0)
        + (if h = 1 && f land (pinged lor ack) = 0 then 4 else 0)
        + if h = 2 && f land (token lor fork) = token then if x land 128 <> 0 then 6 else 3 else 0))

(* code_terms.[(hi lsl 6) lor three codes] is 6 plus each code's
   weight less 3: P 0, A and F -2, R v - 3 *)
let code_terms =
  String.init 128 (fun x ->
      let w c = if c = code_p then 0 else if c = code_r then if x land 64 <> 0 then 2 else -1 else -2 in
      Char.chr (6 + w (x land 3) + w ((x lsr 2) land 3) + w ((x lsr 4) land 3)))

(* The messages on channel value [ch]. Positions past the length read
   as code P, whose term is 0. *)
let[@lint.hot] chan_weight ch hi =
  let codes = ch lsr 3 and base = hi lsl 6 in
  (3 * (ch land 7))
  + Char.code code_terms.[base lor (codes land 63)]
  + Char.code code_terms.[base lor (codes lsr 6)]
  - 12

(* [acc] plus the x terms of the slots [s, hi) of an owner of hunger [h] *)
let[@lint.hot] rec slots_x lay st h s hi acc =
  if s = hi then acc
  else
    let c = lay.hi_col.(s) and crashed = (pflags st lay.dst.(s) lsr 3) land 1 in
    let terms = slot_terms.[(h lsl 9) lor (crashed lsl 8) lor (c lsl 7) lor flags lay st s] in
    slots_x lay st h (s + 1) hi (acc + Char.code terms + chan_weight (chan lay st s) c)

(* [acc] plus r * x_radix + x over the processes from [i] *)
let[@lint.hot] rec procs_rank lay st i acc =
  if i = lay.n then acc
  else
    let pf = pflags st i in
    let t = Char.code proc_terms.[pf land 15] in
    let r = (4 * String.get_uint16_le st (proc_at i + 1)) + (t land 3) in
    let x = slots_x lay st (t lsr 2) lay.off.(i) lay.off.(i + 1) 0 in
    procs_rank lay st (i + 1) (acc + (r * lay.x_radix) + x)

let rank s =
  let st = s.bytes and lay = s.lay in
  let budgets = (String.get_uint16_le st 0 * lay.fp_radix) + String.get_uint16_le st 2 in
  procs_rank lay st 0 (budgets * lay.r_radix * lay.x_radix)

let rec lowers_rank r = function
  | [] -> ()
  | (_act, label, next) :: rest ->
      if rank next >= r then
        raise (Model_violation (Printf.sprintf "rank: %s does not lower the rank" label));
      lowers_rank r rest

(* ------------------------------------------------------------------ *)
(* Transition enumeration.                                             *)
(* ------------------------------------------------------------------ *)

(* true iff some slot of [lo, hi) has [flags land mask = want] *)
let rec exists_slot lay st lo hi mask want =
  lo < hi && (flags lay st lo land mask = want || exists_slot lay st (lo + 1) hi mask want)

let successors_tagged _cfg s =
  let lay = s.lay and st = s.bytes in
  let out = ref [] in
  let add (act, label) b = out := (act, label, { lay; bytes = Bytes.unsafe_to_string b }) :: !out in
  let crash_left = String.get_uint16_le st 0 and fp_left = String.get_uint16_le st 2 in
  for i = 0 to lay.n - 1 do
    let pa = proc_at i in
    let pf = pflags st i in
    let phase = pf land phase_mask and inside = pf land inside_bit <> 0 in
    let lo = lay.off.(i) and hi = lay.off.(i + 1) in
    if pf land crashed_bit = 0 then begin
      (* Action 1: become hungry (budgeted). *)
      let sessions = String.get_uint16_le st (pa + 1) in
      if phase = 0 && sessions > 0 then begin
        let b = Bytes.of_string st in
        Bytes.set_uint8 b pa (pf lor 1);
        Bytes.set_uint16_le b (pa + 1) (sessions - 1);
        add (local lay i k_hungry) b
      end;
      if phase = 1 && not inside then begin
        (* Action 2: ping neighbors lacking an ack and a pending ping. *)
        if exists_slot lay st lo hi (pinged lor ack) 0 then begin
          let b = Bytes.of_string st in
          for x = hi - 1 downto lo do
            let f = flags lay st x in
            if f land (pinged lor ack) = 0 then begin
              set_flags lay b x (f lor pinged);
              push lay b x code_p
            end
          done;
          add (local lay i k_a2) b
        end;
        (* Action 5: enter the doorway. *)
        if not (exists_slot lay st lo hi (ack lor susp) 0) then begin
          let b = Bytes.of_string st in
          for x = lo to hi - 1 do
            set_flags lay b x (flags lay st x land lnot (ack lor replied))
          done;
          Bytes.set_uint8 b pa (pf lor inside_bit);
          add (local lay i k_a5) b
        end
      end;
      if phase = 1 && inside then begin
        (* Action 6: request missing forks. *)
        if exists_slot lay st lo hi (token lor fork) token then begin
          let b = Bytes.of_string st in
          for x = hi - 1 downto lo do
            let f = flags lay st x in
            if f land (token lor fork) = token then begin
              set_flags lay b x (f land lnot token);
              push lay b x code_r
            end
          done;
          add (local lay i k_a6) b
        end;
        (* Action 9: eat. *)
        if not (exists_slot lay st lo hi (fork lor susp) 0) then begin
          let b = Bytes.of_string st in
          Bytes.set_uint8 b pa (pf land lnot phase_mask lor 2);
          add (local lay i k_a9) b
        end
      end;
      (* Action 10: exit. *)
      if phase = 2 then begin
        let b = Bytes.of_string st in
        for x = lo to hi - 1 do
          let f = flags lay st x in
          if f land (token lor fork) = token lor fork then begin
            set_flags lay b x (f land lnot fork);
            push lay b x code_f
          end
        done;
        for x = lo to hi - 1 do
          let f = Bytes.get_uint8 b (lay.slots_at + x) in
          if f land deferred <> 0 then begin
            set_flags lay b x (f land lnot deferred);
            push lay b x code_a
          end
        done;
        Bytes.set_uint8 b pa (pf land lnot (phase_mask lor inside_bit));
        add (local lay i k_a10) b
      end;
      (* Crash fault. *)
      if crash_left > 0 then begin
        let b = Bytes.of_string st in
        Bytes.set_uint8 b pa (pf lor crashed_bit);
        Bytes.set_uint16_le b 0 (crash_left - 1);
        add (local lay i k_crash) b
      end;
      (* Oracle output changes at observer i. *)
      for x = lo to hi - 1 do
        let f = flags lay st x in
        if pflags st lay.dst.(x) land crashed_bit <> 0 then begin
          if f land susp = 0 then begin
            (* Completeness: suspicion of a crashed neighbor can switch on
               (and, being justified, never off). *)
            let b = Bytes.of_string st in
            set_flags lay b x (f lor susp);
            add (slot_act lay x k_detect) b
          end
        end
        else if fp_left > 0 then begin
          let b = Bytes.of_string st in
          set_flags lay b x (f lxor susp);
          Bytes.set_uint16_le b 2 (fp_left - 1);
          add (slot_act lay x k_fp) b
        end
      done
    end;
    (* Message deliveries on channels i -> each neighbor. *)
    for x = lo to hi - 1 do
      if chan lay st x land 7 > 0 then begin
        let b = Bytes.of_string st in
        let code = pop lay b x in
        if pflags st lay.dst.(x) land crashed_bit <> 0 then begin
          absorb lay b x code;
          add (slot_act lay x k_drop) b
        end
        else begin
          handle lay b x code;
          add (slot_act lay x k_deliver) b
        end
      end
    done
  done;
  let succs = List.rev !out in
  lowers_rank (rank s) succs;
  succs

let successors cfg s =
  List.map (fun (_act, label, next) -> (label, next)) (successors_tagged cfg s)

let proc_of = function
  | Act_local { pid; _ } | Act_crash { pid } -> pid
  | Act_deliver { dst; _ } | Act_drop { dst; _ } -> dst
  | Act_detect { observer; _ } | Act_fp { observer; _ } -> observer

(* The process set an action reads or writes, as an (a, b) pair with
   b = -1 for single-process actions. *)
let touches = function
  | Act_local { pid; _ } | Act_crash { pid } -> (pid, -1)
  | Act_deliver { src; dst } | Act_drop { src; dst } -> (src, dst)
  | Act_detect { observer; target } | Act_fp { observer; target } -> (observer, target)

(* Whole-process actions: their effect (a phase change, a live->crashed
   flip, messages pushed onto every incident out-channel) is read by the
   invariant footprint of every incident edge, so two of them must be
   non-adjacent to have provably disjoint footprints. Channel actions
   only write the footprint of their own edge; oracle flips write no
   invariant footprint at all. *)
let proc_wide = function
  | Act_local _ | Act_crash _ -> true
  | Act_deliver _ | Act_drop _ | Act_detect _ | Act_fp _ -> false

let independent cfg a b =
  let mem x (p, q) = x >= 0 && (x = p || x = q) in
  let disjoint (p, q) pb = not (mem p pb || mem q pb) in
  let adjacent_sets (p, q) (p', q') =
    let adj x y = x >= 0 && y >= 0 && Cgraph.Graph.is_edge cfg.graph x y in
    adj p p' || adj p q' || adj q p' || adj q q'
  in
  let ta = touches a and tb = touches b in
  match (a, b) with
  (* Shared-budget siblings: executing one can disable the other. *)
  | Act_crash _, Act_crash _ | Act_fp _, Act_fp _ -> false
  (* Channel actions confine reads and writes to their own edge. *)
  | (Act_deliver _ | Act_drop _), (Act_deliver _ | Act_drop _) -> disjoint ta tb
  | _ ->
      disjoint ta tb
      && ((not (proc_wide a && proc_wide b)) || not (adjacent_sets ta tb))

(* ------------------------------------------------------------------ *)
(* Invariants.                                                          *)
(* ------------------------------------------------------------------ *)

exception Violated of string

let fail fmt = Printf.ksprintf (fun m -> raise (Violated m)) fmt
let bit f mask = if f land mask <> 0 then 1 else 0

(* messages of [code] among the first [len] of channel value [ch] *)
let rec count_prefix ch code len =
  if len = 0 then 0
  else
    count_prefix ch code (len - 1)
    + if (ch lsr (1 + (2 * len))) land 3 = code then 1 else 0

let count_code ch code = count_prefix ch code (ch land 7)

(* messages of [code] held in, or absorbed from, either channel of an edge *)
let in_flight lay st si sj code =
  count_code (chan lay st si) code
  + count_code (chan lay st sj) code
  + absorbed lay st si code + absorbed lay st sj code

(* Lemma 2.2 for a's pings to b: a ping pending on slot sa = (a, b) has
   exactly one artifact — the ping itself, b's deferred reply, or the
   ack on sb = (b, a) — counting absorbed copies. *)
let ping_pipeline lay st a b sa sb =
  let fa = flags lay st sa in
  let artifacts =
    count_code (chan lay st sa) code_p
    + absorbed lay st sa code_p
    + bit (flags lay st sb) deferred
    + count_code (chan lay st sb) code_a
    + absorbed lay st sb code_a
  in
  if artifacts <> bit fa pinged then
    fail "pair(%d,%d): pinged=%b with %d ping artifacts" a b (fa land pinged <> 0) artifacts

let check_edge lay st e =
  let i = lay.eu.(e) and j = lay.ev.(e) in
  let si = lay.esu.(e) and sj = lay.esv.(e) in
  (* Fork conservation (Lemma 1.2 + crash absorption). *)
  let forks = bit (flags lay st si) fork + bit (flags lay st sj) fork + in_flight lay st si sj code_f in
  if forks <> 1 then fail "edge(%d,%d): %d forks" i j forks;
  (* Token conservation. *)
  let tokens =
    bit (flags lay st si) token + bit (flags lay st sj) token + in_flight lay st si sj code_r
  in
  if tokens <> 1 then fail "edge(%d,%d): %d tokens" i j tokens;
  (* Lemma 2.2 (ping-pipeline consistency), in both directions. *)
  ping_pipeline lay st i j si sj;
  ping_pipeline lay st j i sj si;
  (* Section 7: channel capacity. *)
  let in_transit = (chan lay st si land 7) + (chan lay st sj land 7) in
  if in_transit > 4 then fail "edge(%d,%d): %d messages in transit" i j in_transit

let eating st i = pflags st i land phase_mask = 2
let live st i = pflags st i land crashed_bit = 0

let check _cfg s =
  let lay = s.lay and st = s.bytes in
  try
    (* Eating implies inside. *)
    for i = 0 to lay.n - 1 do
      if eating st i && pflags st i land inside_bit = 0 then fail "p%d eats outside doorway" i
    done;
    (* Weak exclusion among live neighbors holds outright when the oracle
       never lies (fp budget 0 in the whole run). *)
    if lay.fp_accurate then
      for e = 0 to Array.length lay.eu - 1 do
        let i = lay.eu.(e) and j = lay.ev.(e) in
        if eating st i && eating st j && live st i && live st j then
          fail "exclusion: %d and %d eat simultaneously" i j
      done;
    for e = 0 to Array.length lay.eu - 1 do
      check_edge lay st e
    done;
    None
  with Violated m -> Some m

let key s = s.bytes

(* the first live hungry process from [i], or -1 *)
let rec first_hungry lay st i =
  if i = lay.n then -1
  else if pflags st i land (phase_mask lor crashed_bit) = 1 then i
  else first_hungry lay st (i + 1)

let hungry_live_process _cfg s =
  match first_hungry s.lay s.bytes 0 with -1 -> None | i -> Some i

let rec only_crashes = function
  | [] -> true
  | (Act_crash _, _, _) :: rest -> only_crashes rest
  | _ -> false

let stuck _cfg s succs = only_crashes succs && first_hungry s.lay s.bytes 0 >= 0

let phase s i =
  match pflags s.bytes i land phase_mask with 0 -> `Thinking | 1 -> `Hungry | _ -> `Eating

let inside s i = pflags s.bytes i land inside_bit <> 0
let crashed s i = pflags s.bytes i land crashed_bit <> 0

let describe s =
  let b = Buffer.create 256 in
  for i = 0 to s.lay.n - 1 do
    Buffer.add_char b 'p';
    Buffer.add_string b (string_of_int i);
    Buffer.add_string b
      (match phase s i with `Thinking -> ":T" | `Hungry -> ":H" | `Eating -> ":E");
    if inside s i then Buffer.add_string b "+in";
    if crashed s i then Buffer.add_string b "+crashed";
    Buffer.add_char b ' '
  done;
  Buffer.contents b
