(* Level-synchronous BFS, the model checker's only one, with successor
   generation fanned out across an Exec.Pool. Determinism is by
   construction:

   - a level is an array of states in discovery order, and ids are
     interned in discovery order, so the level's states carry the
     consecutive ids interned last;
   - the level is expanded in slices of [slice_per_domain * Pool.size]
     states, each split into contiguous chunks; chunk expansion is pure
     (fresh state copies, no shared mutable data), and Exec.Pool.init
     returns chunk results in chunk-index order;
   - interning, parent recording, invariant checks and truncation all
     happen in the sequential merge of each slice, in that order, which
     is the order a sequential expansion of the level produces.

   Hence every result field is bit-identical for any [domains]. The
   merge checks a state only when it interns it, so each state is
   checked once, and merging a slice before expanding the next lets
   the slice's successor lists die in the minor heap. *)

(* What a worker hands the merge for one state of the level. *)
type expansion =
  | Poisoned of string * string (* successors_tagged raised Model_violation: message, state *)
  | Stuck of (Model.action * string * Model.state) list (* a deadlock; crashes only *)
  | Succs of (Model.action * string * Model.state) list (* [] for a finished run *)

(* States expanded per domain between two merges. *)
let slice_per_domain = 256

let expand cfg state =
  match Model.successors_tagged cfg state with
  | exception Model.Model_violation msg -> Poisoned (msg, Model.describe state)
  | succs -> if Model.stuck cfg state succs then Stuck succs else Succs succs

(* A growable array: [items.(0 .. len - 1)] are live. *)
type 'a buf = { mutable items : 'a array; mutable len : int }

let buf filler = { items = Array.make 256 filler; len = 0 }

let push b x =
  if b.len = Array.length b.items then begin
    let items = Array.make (2 * b.len) x in
    Array.blit b.items 0 items 0 b.len;
    b.items <- items
  end;
  b.items.(b.len) <- x;
  b.len <- b.len + 1

type search = {
  cfg : Model.config;
  check : Model.config -> Model.state -> string option;
  max_states : int;
  interned : Intern.t;
  parent : int buf; (* id -> parent id; the root's is -1 *)
  label : string buf; (* id -> label of the transition into it *)
  mutable next : Model.state buf; (* the level being discovered *)
  mutable transitions : int;
  mutable deadlocks : int;
  mutable truncated : bool;
  mutable violation : (string * string) option;
  mutable vio_id : int;
}

(* Intern a new state and check it, unless a violation is already
   recorded: the first one in merge order is the verdict. *)
let add t parent label state =
  let id = Intern.count t.interned in
  ignore (Intern.add t.interned (Model.key state));
  push t.parent parent;
  push t.label label;
  push t.next state;
  if t.violation = None then
    match t.check t.cfg state with
    | Some msg ->
        t.violation <- Some (msg, Model.describe state);
        t.vio_id <- id
    | None -> ()

(* The successors of state [id]. Below the depth cap ([open_]) an
   unseen one is interned while the state cap allows; at the cap an
   unseen one only marks the search incomplete. *)
let rec merge_succs t ~open_ id = function
  | [] -> ()
  | (_act, label, next) :: rest ->
      t.transitions <- t.transitions + 1;
      if not (Intern.mem t.interned (Model.key next)) then
        if open_ && Intern.count t.interned < t.max_states then add t id label next
        else t.truncated <- true;
      merge_succs t ~open_ id rest

(* A chunk's expansions, the first of which belongs to state [id];
   returns the id after the chunk's last state. *)
let rec merge t ~open_ id = function
  | [] -> id
  | e :: rest ->
      (match e with
      | Poisoned (msg, state) ->
          if t.violation = None then begin
            t.violation <- Some (msg, state);
            t.vio_id <- id
          end
      | Stuck succs ->
          t.deadlocks <- t.deadlocks + 1;
          merge_succs t ~open_ id succs
      | Succs succs -> merge_succs t ~open_ id succs);
      merge t ~open_ (id + 1) rest

(* The schedule from the root to [id], along parent pointers. *)
let trace t id =
  let rec go id acc = if id = 0 then acc else go t.parent.items.(id) (t.label.items.(id) :: acc) in
  go id []

let explore ?(max_states = 200_000) ?(max_depth = max_int) ?(domains = 1) ?check cfg =
  let check = match check with Some f -> f | None -> Model.check in
  Exec.Pool.with_pool ~domains (fun pool ->
      let init = Model.initial cfg in
      let t =
        {
          cfg;
          check;
          max_states;
          interned = Intern.create ();
          parent = buf 0;
          label = buf "";
          next = buf init;
          transitions = 0;
          deadlocks = 0;
          truncated = false;
          violation = None;
          vio_id = -1;
        }
      in
      add t (-1) "" init;
      let spare = ref (buf init) in
      let size = Exec.Pool.size pool in
      let d = ref 0 in
      while t.next.len > 0 && t.violation = None do
        let level = t.next in
        t.next <- !spare;
        t.next.len <- 0;
        spare := level;
        let states = level.items and len = level.len in
        let open_ = !d < max_depth in
        (* The level's states were the last [len] interned. *)
        let id = ref (Intern.count t.interned - len) in
        let lo = ref 0 in
        while !lo < len do
          let n = min (slice_per_domain * size) (len - !lo) in
          let chunks = min n size in
          let base = n / chunks and extra = n mod chunks and start = !lo in
          let out =
            Exec.Pool.init pool chunks (fun c ->
                (* The expansions of the chunk's states, in order. *)
                let clo = start + (c * base) + min c extra in
                let chi = clo + base + if c < extra then 1 else 0 in
                let acc = ref [] in
                for i = chi - 1 downto clo do
                  acc := expand cfg states.(i) :: !acc
                done;
                !acc)
          in
          Array.iter (fun exps -> id := merge t ~open_ !id exps) out;
          lo := !lo + n
        done;
        if t.next.len > 0 then incr d
      done;
      {
        Explore.states = Intern.count t.interned;
        transitions = t.transitions;
        depth = !d;
        complete = (not t.truncated) && t.violation = None;
        violation = t.violation;
        deadlocks = t.deadlocks;
        trace = (if t.vio_id >= 0 then Some (trace t t.vio_id) else None);
      })

type reach_result = Found of int | Unreachable | Truncated

(* [check] runs only until the first violation, so a hit that was
   recorded is the verdict. *)
let reach ?max_states ?max_depth ~pred cfg =
  let hit = ref false in
  let check _cfg s =
    if pred s then begin
      hit := true;
      Some "reach: target"
    end
    else None
  in
  let r = explore ?max_states ?max_depth ~check cfg in
  match (r.violation, r.trace) with
  | Some _, Some trace when !hit -> Found (List.length trace)
  | Some (msg, _), _ -> raise (Model.Model_violation msg)
  | None, _ -> if r.complete then Unreachable else Truncated
