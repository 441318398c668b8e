type batch = {
  body : int -> unit;
  n : int;
  next : int Atomic.t; (* next unclaimed task index *)
  completed : int Atomic.t; (* tasks finished (body returned or raised) *)
  failures : (int * exn) list Atomic.t; (* raised bodies, by task index *)
}

type t = {
  size : int;
  mutex : Mutex.t;
  posted : Condition.t; (* workers: a new batch or shutdown *)
  finished : Condition.t; (* submitter: a batch fully drained *)
  mutable current : batch option;
  mutable generation : int; (* bumped per submitted batch *)
  mutable busy : bool; (* a batch is in flight; guards current/generation *)
  mutable shutting_down : bool;
  mutable workers : unit Domain.t array;
}

let default_domains () = max 1 (Domain.recommended_domain_count ())

let rec push_failure failures i e =
  let cur = Atomic.get failures in
  if not (Atomic.compare_and_set failures cur ((i, e) :: cur)) then push_failure failures i e

(* Claim unowned indices until the batch is exhausted. A raising body must
   still count its index as completed, or the submitter waits on
   [completed = n] forever — exceptions are captured per index and
   re-raised (lowest index first) once the batch has drained. *)
let drain t batch ~signal_finish =
  let rec loop () =
    let i = Atomic.fetch_and_add batch.next 1 in
    if i < batch.n then begin
      (try batch.body i with e -> push_failure batch.failures i e);
      let done_now = 1 + Atomic.fetch_and_add batch.completed 1 in
      if done_now = batch.n && signal_finish then begin
        Mutex.lock t.mutex;
        Condition.broadcast t.finished;
        Mutex.unlock t.mutex
      end;
      loop ()
    end
  in
  loop ()

let worker t =
  let rec wait_for_work seen_gen =
    Mutex.lock t.mutex;
    while (not t.shutting_down) && t.generation = seen_gen do
      Condition.wait t.posted t.mutex
    done;
    if t.shutting_down then Mutex.unlock t.mutex
    else begin
      let gen = t.generation and batch = t.current in
      Mutex.unlock t.mutex;
      (match batch with Some b -> drain t b ~signal_finish:true | None -> ());
      wait_for_work gen
    end
  in
  wait_for_work 0

let create ?domains () =
  let size = max 1 (match domains with None -> default_domains () | Some d -> d) in
  let t =
    {
      size;
      mutex = Mutex.create ();
      posted = Condition.create ();
      finished = Condition.create ();
      current = None;
      generation = 0;
      busy = false;
      shutting_down = false;
      workers = [||];
    }
  in
  t.workers <- Array.init (size - 1) (fun _ -> Domain.spawn (fun () -> worker t));
  t

let size t = t.size

let shutdown t =
  Mutex.lock t.mutex;
  t.shutting_down <- true;
  Condition.broadcast t.posted;
  Mutex.unlock t.mutex;
  Array.iter Domain.join t.workers;
  t.workers <- [||]

let with_pool ?domains f =
  let t = create ?domains () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let reraise_lowest failures =
  match Atomic.get failures with
  | [] -> ()
  | first :: rest ->
      let _, e =
        List.fold_left (fun (bi, be) (i, e) -> if i < bi then (i, e) else (bi, be)) first rest
      in
      raise e

(* A second submission while a batch is in flight — nested from inside a
   task, or concurrent from another domain — would silently overwrite
   [t.current]: workers still draining the first batch would claim
   indices of the second, and the first submitter would wait on a
   [completed] count that can no longer reach [n]. Detect and refuse
   instead of hanging. A nested call raises inside its task, is captured
   like any task failure, and resurfaces once the outer batch drains. *)
let enter_batch t =
  Mutex.lock t.mutex;
  if t.busy then begin
    Mutex.unlock t.mutex;
    invalid_arg "Pool.run_batch: pool is already running a batch (nested or concurrent submission)"
  end;
  t.busy <- true

let run_batch t n body =
  if n > 0 then begin
    let failures = Atomic.make [] in
    if t.size <= 1 then begin
      enter_batch t;
      Mutex.unlock t.mutex;
      (* Same contract as the parallel path: every index runs even after a
         failure, then the lowest-index exception is re-raised. *)
      for i = 0 to n - 1 do
        try body i with e -> push_failure failures i e
      done;
      Mutex.lock t.mutex;
      t.busy <- false;
      Mutex.unlock t.mutex
    end
    else begin
      let batch = { body; n; next = Atomic.make 0; completed = Atomic.make 0; failures } in
      enter_batch t;
      t.current <- Some batch;
      t.generation <- t.generation + 1;
      Condition.broadcast t.posted;
      Mutex.unlock t.mutex;
      (* The submitter works too; it may or may not finish the last task. *)
      drain t batch ~signal_finish:false;
      Mutex.lock t.mutex;
      while Atomic.get batch.completed < n do
        Condition.wait t.finished t.mutex
      done;
      t.current <- None;
      t.busy <- false;
      Mutex.unlock t.mutex
    end;
    reraise_lowest failures
  end

let init t n f =
  if n < 0 then invalid_arg "Pool.init: negative size";
  if n = 0 then [||]
  else begin
    let results = Array.make n None in
    run_batch t n (fun i ->
        let r = try Ok (f i) with e -> Error e in
        results.(i) <- Some r);
    (* In index order, so a failure re-raises the lowest-index exception
       regardless of which domain ran it. *)
    Array.map
      (function Some (Ok v) -> v | Some (Error e) -> raise e | None -> assert false)
      results
  end

let map_array t f a = init t (Array.length a) (fun i -> f a.(i))
let map_list t f l = Array.to_list (map_array t f (Array.of_list l))
