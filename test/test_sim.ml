(* Tests for the simulation substrate: Time, Rng, the reference Pqueue,
   Wheel, Engine, and the engine recorder's trace rows. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* ------------------------------- Time ------------------------------ *)

let time_add_saturates () =
  check int "inf + 1 = inf" Sim.Time.infinity (Sim.Time.add Sim.Time.infinity 1);
  check int "1 + inf = inf" Sim.Time.infinity (Sim.Time.add 1 Sim.Time.infinity);
  check int "near-overflow saturates" Sim.Time.infinity (Sim.Time.add (max_int - 1) (max_int - 1));
  check int "ordinary addition" 7 (Sim.Time.add 3 4)

let time_predicates () =
  check bool "zero finite" true (Sim.Time.is_finite Sim.Time.zero);
  check bool "infinity not finite" false (Sim.Time.is_finite Sim.Time.infinity);
  check Alcotest.string "pp finite" "42" (Sim.Time.to_string 42);
  check Alcotest.string "pp infinite" "inf" (Sim.Time.to_string Sim.Time.infinity)

(* ------------------------------- Rng ------------------------------- *)

let rng_deterministic () =
  let a = Sim.Rng.create 99L and b = Sim.Rng.create 99L in
  for _ = 1 to 100 do
    check int "same seed same stream" (Sim.Rng.int a 1_000_000) (Sim.Rng.int b 1_000_000)
  done

let rng_seed_sensitivity () =
  let a = Sim.Rng.create 1L and b = Sim.Rng.create 2L in
  let differs = ref false in
  for _ = 1 to 20 do
    if Sim.Rng.int a 1_000_000 <> Sim.Rng.int b 1_000_000 then differs := true
  done;
  check bool "different seeds diverge" true !differs

let rng_split_named_stable () =
  let a = Sim.Rng.create 7L and b = Sim.Rng.create 7L in
  let sa = Sim.Rng.split_named a "workload" and sb = Sim.Rng.split_named b "workload" in
  check int "named split deterministic" (Sim.Rng.int sa 1000) (Sim.Rng.int sb 1000);
  (* split_named must not consume parent randomness *)
  check int "parent untouched" (Sim.Rng.int a 1000) (Sim.Rng.int b 1000)

let rng_split_named_distinct () =
  let rng = Sim.Rng.create 7L in
  let s1 = Sim.Rng.split_named rng "one" and s2 = Sim.Rng.split_named rng "two" in
  let differs = ref false in
  for _ = 1 to 10 do
    if Sim.Rng.int s1 1_000_000 <> Sim.Rng.int s2 1_000_000 then differs := true
  done;
  check bool "distinct labels diverge" true !differs

let rng_ranges =
  QCheck.Test.make ~name:"rng: int_in stays in range" ~count:500
    QCheck.(triple small_int small_int (int_bound 1000))
    (fun (a, b, seed) ->
      let lo = min a b and hi = max a b in
      let rng = Sim.Rng.create (Int64.of_int seed) in
      let x = Sim.Rng.int_in rng lo hi in
      x >= lo && x <= hi)

let rng_float_range =
  QCheck.Test.make ~name:"rng: float in [0,1)" ~count:500 QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Sim.Rng.create (Int64.of_int seed) in
      let f = Sim.Rng.float rng in
      f >= 0.0 && f < 1.0)

let rng_shuffle_permutes () =
  let rng = Sim.Rng.create 5L in
  let a = Array.init 100 Fun.id in
  Sim.Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check bool "shuffle is a permutation" true (sorted = Array.init 100 Fun.id);
  check bool "shuffle moved something" true (a <> Array.init 100 Fun.id)

(* The stream is pinned to the values the generator produced when its
   state was a [mutable int64] field: every golden depends on it. *)
let rng_stream_pinned () =
  let r = Sim.Rng.create 42L in
  check Alcotest.int64 "first bits64" (-4767286540954276203L) (Sim.Rng.bits64 r);
  check int "then int 1000" 145 (Sim.Rng.int r 1000);
  check (Alcotest.float 0.) "then float" 0.27860113025513866 (Sim.Rng.float r)

(* Regression: with the state in a [mutable int64] field every draw
   boxed one Int64 for the store and one for the return, 6 words per
   draw, and a network draws once per message. *)
let rng_draws_allocate_nothing () =
  let r = Sim.Rng.create 3L in
  let acc = ref 0 in
  let words =
    Alloc.words (fun () ->
        for _ = 1 to 1000 do
          acc := !acc + Sim.Rng.int r 100 + Sim.Rng.int_in r 1 6
        done)
  in
  ignore (Sys.opaque_identity !acc);
  check (Alcotest.float 0.) "words for 2000 draws" 0. words

let rng_split_independent () =
  let parent = Sim.Rng.create 9L in
  let child = Sim.Rng.split parent in
  let differs = ref false in
  for _ = 1 to 10 do
    if Sim.Rng.int parent 1_000_000 <> Sim.Rng.int child 1_000_000 then differs := true
  done;
  check bool "split stream diverges from parent" true !differs

let rng_pick_uniformish () =
  let rng = Sim.Rng.create 13L in
  let values = [| 10; 20; 30 |] in
  let seen = Hashtbl.create 3 in
  for _ = 1 to 200 do
    Hashtbl.replace seen (Sim.Rng.pick rng values) ()
  done;
  check int "all elements eventually picked" 3 (Hashtbl.length seen)

let rng_exponential_positive () =
  let rng = Sim.Rng.create 11L in
  for _ = 1 to 100 do
    check bool "exponential >= 0" true (Sim.Rng.exponential rng ~mean:10.0 >= 0.0)
  done

(* ------------------------------ Pqueue ----------------------------- *)

(* The reference binary heap (test/pqueue.ml) is the oracle the wheel
   differential tests compare against, so it is tested on its own first. *)

let pqueue_orders () =
  let q = Pqueue.create () in
  List.iter (fun p -> Pqueue.add q ~prio:p p) [ 5; 1; 4; 1; 3 ];
  let order = List.init 5 (fun _ -> fst (Option.get (Pqueue.pop q))) in
  check (Alcotest.list int) "min-heap order" [ 1; 1; 3; 4; 5 ] order;
  check bool "now empty" true (Pqueue.is_empty q)

let pqueue_fifo_ties () =
  let q = Pqueue.create () in
  List.iteri (fun i label -> Pqueue.add q ~prio:7 (i, label)) [ "a"; "b"; "c"; "d" ];
  let labels = List.init 4 (fun _ -> snd (snd (Option.get (Pqueue.pop q)))) in
  check (Alcotest.list Alcotest.string) "FIFO among equal priorities" [ "a"; "b"; "c"; "d" ] labels

let pqueue_interleaved () =
  let q = Pqueue.create () in
  Pqueue.add q ~prio:10 10;
  Pqueue.add q ~prio:1 1;
  check (Alcotest.option int) "peek min" (Some 1) (Pqueue.peek_prio q);
  ignore (Pqueue.pop q);
  Pqueue.add q ~prio:5 5;
  check int "size" 2 (Pqueue.size q);
  check (Alcotest.option int) "next is 5" (Some 5) (Pqueue.peek_prio q)

let pqueue_empty_pop () =
  let q = Pqueue.create () in
  check bool "pop empty" true (Pqueue.pop q = None);
  check bool "peek empty" true (Pqueue.peek_prio q = None)

let pqueue_sorts =
  QCheck.Test.make ~name:"pqueue: drains any multiset in sorted order" ~count:200
    QCheck.(list small_nat)
    (fun prios ->
      let q = Pqueue.create () in
      List.iter (fun p -> Pqueue.add q ~prio:p p) prios;
      let rec drain acc =
        match Pqueue.pop q with None -> List.rev acc | Some (p, _) -> drain (p :: acc)
      in
      drain [] = List.sort compare prios)

let pqueue_clear () =
  let q = Pqueue.create () in
  for i = 1 to 50 do
    Pqueue.add q ~prio:i i
  done;
  Pqueue.clear q;
  check int "cleared" 0 (Pqueue.size q);
  Pqueue.add q ~prio:1 1;
  check int "usable after clear" 1 (Pqueue.size q)

(* ------------------------------ Wheel ------------------------------ *)

(* The wheel queues int handles; a test keeps each handle's payload in
   a side array, as the engine keeps events in its pool. [wheel_pop]
   returns the popped handle with its tick, in the reference heap's
   option shape, so the two can be compared pop for pop. *)
let wheel_take q = Sim.Wheel.pop_until q max_int

let wheel_pop q =
  let h = wheel_take q in
  if h < 0 then None else Some (Sim.Wheel.floor q, h)

let wheel_peek q =
  let p = Sim.Wheel.next_tick q in
  if p = max_int then None else Some p

let wheel_orders () =
  let q = Sim.Wheel.create () in
  check int "empty: next_tick is max_int" max_int (Sim.Wheel.next_tick q);
  List.iteri (fun h p -> Sim.Wheel.add q ~prio:p h) [ 5; 1; 4; 1; 3 ];
  check int "next_tick is the minimum" 1 (Sim.Wheel.next_tick q);
  let order = List.init 5 (fun _ -> fst (Option.get (wheel_pop q))) in
  check (Alcotest.list int) "sorted" [ 1; 1; 3; 4; 5 ] order;
  check bool "now empty" true (Sim.Wheel.is_empty q);
  check int "empty again: next_tick is max_int" max_int (Sim.Wheel.next_tick q);
  check int "pop on empty" (-1) (wheel_take q)

let wheel_fifo_ties () =
  let q = Sim.Wheel.create () in
  let labels = [| "a"; "b"; "c"; "d" |] in
  Array.iteri (fun h _ -> Sim.Wheel.add q ~prio:7 h) labels;
  let popped = List.init 4 (fun _ -> labels.(wheel_take q)) in
  check (Alcotest.list Alcotest.string) "insertion order at equal prio" [ "a"; "b"; "c"; "d" ]
    popped

(* Priorities spanning every wheel level, including ticks far beyond the
   low levels' horizon, drain in global order with ties FIFO. *)
let wheel_multilevel_spans () =
  let q = Sim.Wheel.create () in
  let prios =
    [ 0; 255; 256; 257; 65_535; 65_536; 1; 16_777_215; 16_777_216; (1 lsl 40) + 3; 1 lsl 40 ]
  in
  List.iteri (fun h p -> Sim.Wheel.add q ~prio:p h) prios;
  let rec drain acc =
    match wheel_pop q with None -> List.rev acc | Some (p, _) -> drain (p :: acc)
  in
  check (Alcotest.list int) "global order across levels"
    (List.sort compare prios) (drain [])

let wheel_floor_rejects_past () =
  let q = Sim.Wheel.create () in
  Sim.Wheel.add q ~prio:100 0;
  ignore (wheel_take q);
  check int "floor tracks the last popped tick" 100 (Sim.Wheel.floor q);
  let rejected =
    match Sim.Wheel.add q ~prio:99 1 with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  check bool "adds below the floor are rejected" true rejected;
  (* Adding exactly at the floor (the engine's "schedule now") is fine. *)
  Sim.Wheel.add q ~prio:100 1;
  check (Alcotest.option int) "same-tick add lands at the floor" (Some 100)
    (wheel_peek q)

let wheel_matches_pqueue =
  (* The wheel against the reference heap: identical pop streams,
     identical peeks, identical sizes, under arbitrary interleavings of
     add / pop. Handles are distinct while queued and recycled the way
     the engine recycles pool slots: a popped handle goes on a free
     stack, and the next add takes it at once. *)
  QCheck.Test.make ~name:"wheel: bit-identical to pqueue on random workloads" ~count:300
    QCheck.(list_of_size Gen.(int_range 0 120) (int_bound 100_000))
    (fun codes ->
      let w = Sim.Wheel.create () in
      let p = Pqueue.create () in
      let payload = Array.make 128 (-1, -1) in
      let free = ref [] and fresh = ref 0 in
      let now = ref 0 in
      let idx = ref 0 in
      let ok = ref true in
      let agree () =
        ok :=
          !ok
          && wheel_peek w = Pqueue.peek_prio p
          && Sim.Wheel.size w = Pqueue.size p
      in
      let pop_both () =
        let a =
          Option.map
            (fun (t, h) ->
              free := h :: !free;
              (t, payload.(h)))
            (wheel_pop w)
        and b = Pqueue.pop p in
        ok := !ok && a = b;
        a
      in
      List.iter
        (fun code ->
          (if code mod 2 = 0 then begin
             (* Mostly short hops, occasionally a jump that crosses
                several wheel levels. *)
             let delta =
               if code mod 5 = 0 then (((code / 3) mod 4) * 1_000_000) + (code mod 97)
               else (code / 3) mod 500
             in
             let prio = !now + delta in
             let v = (!idx, prio) in
             incr idx;
             let h =
               match !free with
               | h :: rest ->
                   free := rest;
                   h
               | [] ->
                   incr fresh;
                   !fresh - 1
             in
             payload.(h) <- v;
             Sim.Wheel.add w ~prio h;
             Pqueue.add p ~prio v
           end
           else match pop_both () with Some (t, _) -> now := t | None -> ());
          agree ())
        codes;
      let rec drain () = if pop_both () <> None then drain () in
      drain ();
      !ok)

(* [pop_until] against the reference heap, with bounds below, at and
   above the next tick: the wheel returns exactly what a bounded pop of
   the heap returns. A bound below the next tick must leave the floor
   where it was, so an add between the floor and that tick is still
   accepted (a cascade made on the way to a tick that is not due would
   raise the floor past it). Peeks are interleaved on some steps only,
   so bounded pops run both with a cached minimum and without one. *)
let wheel_pop_until_matches_pqueue =
  QCheck.Test.make ~name:"wheel: pop_until matches pqueue for bounds below, at and above"
    ~count:300
    QCheck.(list_of_size Gen.(int_range 0 150) (int_bound 1_000_000))
    (fun codes ->
      let w = Sim.Wheel.create () and p = Pqueue.create () in
      let payload = Array.make 256 (-1, -1) in
      let free = ref [] and fresh = ref 0 and idx = ref 0 in
      let ok = ref true in
      let add prio =
        let h =
          match !free with
          | h :: rest ->
              free := rest;
              h
          | [] ->
              incr fresh;
              !fresh - 1
        in
        let v = (!idx, prio) in
        incr idx;
        payload.(h) <- v;
        Sim.Wheel.add w ~prio h;
        Pqueue.add p ~prio v
      in
      let pop_until until =
        let expected =
          match Pqueue.peek_prio p with Some t when t <= until -> Pqueue.pop p | _ -> None
        in
        let h = Sim.Wheel.pop_until w until in
        let got =
          if h < 0 then None
          else begin
            free := h :: !free;
            Some (Sim.Wheel.floor w, payload.(h))
          end
        in
        ok := !ok && got = expected;
        got <> None
      in
      List.iter
        (fun code ->
          let floor = Sim.Wheel.floor w in
          if code mod 4 < 2 then
            (* Mostly short hops, sometimes a jump across levels. *)
            add
              (floor
              + if code mod 5 = 0 then (((code / 3) mod 4) * 1_000_000) + (code mod 97)
                else (code / 3) mod 500)
          else begin
            let next = match Pqueue.peek_prio p with Some t -> t | None -> floor + 1_000 in
            if (code / 7) mod 3 = 0 then
              ok := !ok && wheel_peek w = Pqueue.peek_prio p;
            match (code / 4) mod 3 with
            | 0 ->
                let below =
                  if next > floor then floor + ((code / 12) mod (next - floor)) else next - 1
                in
                if not (pop_until below) && next > floor then begin
                  ok := !ok && Sim.Wheel.floor w = floor;
                  add (floor + ((code / 36) mod (next - floor)))
                end
            | 1 -> ignore (pop_until next : bool)
            | _ -> ignore (pop_until (next + ((code / 12) mod 70_000)) : bool)
          end;
          ok := !ok && Sim.Wheel.size w = Pqueue.size p)
        codes;
      while pop_until max_int do
        ()
      done;
      !ok && Sim.Wheel.is_empty w)

(* The bitmap scan's lowest-set-bit step against a bit-by-bit loop. *)
let ctz_ref x =
  let rec go i = if x land (1 lsl i) <> 0 then i else go (i + 1) in
  go 0

let wheel_ctz32_single_bits () =
  for i = 0 to 31 do
    check int (Printf.sprintf "bit %d" i) i (Sim.Wheel.ctz32 (1 lsl i))
  done;
  check int "every bit set" 0 (Sim.Wheel.ctz32 0xFFFF_FFFF);
  check int "top bit of many" 31 (Sim.Wheel.ctz32 (1 lsl 31))

let wheel_ctz32_random =
  QCheck.Test.make ~name:"wheel: ctz32 matches a bit-by-bit scan on 32-bit words" ~count:2000
    QCheck.(triple (int_bound 0xFFFF) (int_bound 0xFFFF) (int_bound 31))
    (fun (hi, lo, shift) ->
      let x = (((hi lsl 16) lor lo) lsl shift) land 0xFFFF_FFFF in
      QCheck.assume (x <> 0);
      Sim.Wheel.ctz32 x = ctz_ref x)

(* Same-tick FIFO across floor epochs: entries for one tick added while
   it sits at level 2, then level 1, then level 0, then in the current
   list, pop in insertion order. *)
let wheel_fifo_across_epochs () =
  let q = Sim.Wheel.create () in
  let labels = [| "a1"; "m1"; "a2"; "m2"; "a3"; "a4"; "a5" |] in
  let handle label =
    let rec find h = if labels.(h) = label then h else find (h + 1) in
    find 0
  in
  let tick = (3 lsl 16) + (5 lsl 8) + 7 in
  let add ?(at = tick) label = Sim.Wheel.add q ~prio:at (handle label) in
  let pop () = labels.(wheel_take q) in
  add "a1";
  add ~at:(3 lsl 16) "m1";
  check Alcotest.string "level-2 epoch ends" "m1" (pop ());
  add "a2";
  add ~at:((3 lsl 16) + (5 lsl 8)) "m2";
  check Alcotest.string "level-1 epoch ends" "m2" (pop ());
  add "a3";
  check Alcotest.string "tick drains into the current list" "a1" (pop ());
  add "a4";
  add "a5";
  let rest = List.init (Sim.Wheel.size q) (fun _ -> pop ()) in
  check (Alcotest.list Alcotest.string) "insertion order" [ "a2"; "a3"; "a4"; "a5" ] rest;
  check int "all at one tick" tick (Sim.Wheel.floor q)

(* Handles 0..511 at spread ticks over levels 0-2, half of them popped
   and each re-added at once, then all drained: every add, cascade,
   drain and pop of the storm. *)
let wheel_storm q =
  let base = Sim.Wheel.floor q in
  for h = 0 to 511 do
    Sim.Wheel.add q ~prio:(base + 1 + (h * 7919 mod 300_000)) h
  done;
  for _ = 1 to 256 do
    let h = wheel_take q in
    Sim.Wheel.add q ~prio:(Sim.Wheel.floor q + (h * 31 mod 70_000)) h
  done;
  while not (Sim.Wheel.is_empty q) do
    ignore (wheel_take q : int)
  done

(* Regression: level-0 slots were value arrays that regrew 4 -> 8 ->
   ... on every cascade that refilled them, arrays past 256 words
   straight in the major heap, and every upper-level insert allocated a
   list cell. Once the first storm has allocated the links and the
   levels it uses, a second storm allocates nothing on either heap. *)
let wheel_storm_allocates_nothing () =
  let q = Sim.Wheel.create () in
  wheel_storm q;
  let floor = Sim.Wheel.floor q in
  check int "second storm: words on either heap" 0
    (int_of_float (Alloc.words (fun () -> wheel_storm q)));
  check bool "the second storm moved the clock" true (Sim.Wheel.floor q > floor)

(* The engine frees a slot before its handler posts into it, so a
   handle is re-added as soon as [pop] returns it: at the current tick
   (behind the rest of the tick), or later. A handle still queued is
   refused. *)
let wheel_readd_after_pop () =
  let q = Sim.Wheel.create () in
  List.iter (fun h -> Sim.Wheel.add q ~prio:5 h) [ 0; 1; 2 ];
  Sim.Wheel.add q ~prio:300 3;
  Alcotest.check_raises "a queued handle is refused"
    (Invalid_argument "Wheel.add: handle 3 is already queued") (fun () ->
      Sim.Wheel.add q ~prio:9 3);
  check int "head of tick 5" 0 (wheel_take q);
  Sim.Wheel.add q ~prio:5 0;
  check int "next in FIFO" 1 (wheel_take q);
  Sim.Wheel.add q ~prio:70_000 1;
  let rest = List.init (Sim.Wheel.size q) (fun _ -> wheel_pop q) in
  check
    (Alcotest.list (Alcotest.option (Alcotest.pair int int)))
    "re-added handles pop in order"
    [ Some (5, 2); Some (5, 0); Some (300, 3); Some (70_000, 1) ]
    rest

(* ------------------------------ Engine ----------------------------- *)

let engine_fires_in_order () =
  let engine = Sim.Engine.create () in
  let log = ref [] in
  let note tag () = log := tag :: !log in
  ignore (Sim.Engine.schedule engine ~at:30 (note "c"));
  ignore (Sim.Engine.schedule engine ~at:10 (note "a"));
  ignore (Sim.Engine.schedule engine ~at:20 (note "b"));
  Sim.Engine.run_all engine;
  check (Alcotest.list Alcotest.string) "time order" [ "a"; "b"; "c" ] (List.rev !log);
  check int "clock at last event" 30 (Sim.Engine.now engine)

let engine_same_time_fifo () =
  let engine = Sim.Engine.create () in
  let log = ref [] in
  for i = 0 to 9 do
    ignore (Sim.Engine.schedule engine ~at:5 (fun () -> log := i :: !log))
  done;
  Sim.Engine.run_all engine;
  check (Alcotest.list int) "scheduling order preserved" (List.init 10 Fun.id) (List.rev !log)

let engine_until_bound () =
  let engine = Sim.Engine.create () in
  let fired = ref [] in
  List.iter
    (fun t -> ignore (Sim.Engine.schedule engine ~at:t (fun () -> fired := t :: !fired)))
    [ 5; 10; 15 ];
  Sim.Engine.run engine ~until:10;
  check (Alcotest.list int) "only <= until" [ 5; 10 ] (List.rev !fired);
  check int "one pending left" 1 (Sim.Engine.pending engine)

let engine_rejects_past () =
  let engine = Sim.Engine.create () in
  ignore (Sim.Engine.schedule engine ~at:10 (fun () -> ()));
  Sim.Engine.run_all engine;
  Alcotest.check_raises "past scheduling rejected"
    (Invalid_argument "Engine.schedule: at=5 is in the past (now=10)") (fun () ->
      ignore (Sim.Engine.schedule engine ~at:5 (fun () -> ())))

let engine_nested_scheduling () =
  let engine = Sim.Engine.create () in
  let hits = ref 0 in
  let rec chain n () =
    incr hits;
    if n > 0 then ignore (Sim.Engine.schedule_after engine ~delay:2 (chain (n - 1)))
  in
  ignore (Sim.Engine.schedule engine ~at:0 (chain 9));
  Sim.Engine.run_all engine;
  check int "chain length" 10 !hits;
  check int "clock advanced" 18 (Sim.Engine.now engine)

let engine_infinity_noop () =
  let engine = Sim.Engine.create () in
  ignore (Sim.Engine.schedule engine ~at:Sim.Time.infinity (fun () -> Alcotest.fail "fired"));
  Sim.Engine.run_all engine;
  check int "nothing pending" 0 (Sim.Engine.pending engine)

(* ------------------------ Infinity boundary ------------------------ *)

(* Regression: [Time.infinity] is [max_int], and an event inserted at
   that priority used to sit in the queue as a real event that could
   never fire (the wheel's find-min also uses max_int as its sentinel).
   The wheel (and the reference heap) must reject it outright, while
   every finite tick up to [max_int - 1] stays representable. *)
let queue_rejects_infinity () =
  let w = Sim.Wheel.create () in
  let rejected = match Sim.Wheel.add w ~prio:max_int 0 with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  check bool "wheel rejects prio = max_int" true rejected;
  Sim.Wheel.add w ~prio:(max_int - 1) 0;
  check (Alcotest.option (Alcotest.pair int int)) "wheel pops max_int - 1"
    (Some (max_int - 1, 0))
    (wheel_pop w);
  let p = Pqueue.create () in
  let rejected = match Pqueue.add p ~prio:max_int "inf" with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  check bool "pqueue rejects prio = max_int" true rejected;
  Pqueue.add p ~prio:(max_int - 1) "last";
  check (Alcotest.option (Alcotest.pair int Alcotest.string)) "pqueue pops max_int - 1"
    (Some (max_int - 1, "last"))
    (Pqueue.pop p)

(* [Time.add] saturates to infinity, so a huge relative delay is a
   well-defined "never": schedule_after must become the infinity no-op
   rather than overflowing into the past or inserting max_int. With
   [~behind] finite events still pending, the saturated delays must not
   disturb them: they fire in order and the clock stops at the last. *)
let engine_saturated_delay_noop ~behind () =
  let engine = Sim.Engine.create () in
  ignore (Sim.Engine.schedule engine ~at:10 (fun () -> ()));
  Sim.Engine.run_all engine;
  let fired = ref [] in
  List.iter
    (fun t -> ignore (Sim.Engine.schedule engine ~at:t (fun () -> fired := t :: !fired)))
    behind;
  ignore (Sim.Engine.schedule_after engine ~delay:max_int (fun () -> Alcotest.fail "fired"));
  ignore (Sim.Engine.schedule_after engine ~delay:(max_int - 5) (fun () -> Alcotest.fail "fired"));
  check int "saturated delays are infinity no-ops" (List.length behind) (Sim.Engine.pending engine);
  Sim.Engine.run_all engine;
  check (Alcotest.list int) "pending events fire in order" (List.sort compare behind) (List.rev !fired);
  check int "clock stops at the last finite event" (List.fold_left max 10 behind)
    (Sim.Engine.now engine)

(* ------------------------- Parallel stepping ------------------------ *)

(* [fire_loop] is the reference; a parallel run must reproduce it. *)
let with_sharding ?pool ~shards ~n engine =
  Option.iter (fun pool -> Sim.Engine.set_sharding engine ~pool ~shards ~n ()) pool

(* A shard-safe workload that exercises everything parallel stepping must
   get right: nested posting, same-tick chains that cross shards
   (sub-rounds), events posted inside a step and staged as ints, owner
   tags spread over processes. Every handler writes only its owner's
   log, so the workload stays legal at any shard count. *)
let staged_workload ?pool ~shards () =
  let engine = Sim.Engine.create () in
  with_sharding ?pool ~shards ~n:8 engine;
  let logs = Array.make 8 [] in
  let note owner tag = logs.(owner) <- (tag, Sim.Engine.now engine) :: logs.(owner) in
  let snapshot () = Array.map List.rev logs in
  let after kind owner delay a =
    Sim.Engine.post engine ~kind ~owner ~at:(Sim.Engine.now engine + delay) a 0
  in
  (* Two families of chains, countdowns in [a]: delays 1..3 and 1..2. *)
  let chain = ref 0 and short = ref 0 in
  chain :=
    Sim.Engine.register engine (fun owner n _ ->
        note owner (100 + n);
        if n > 0 then after !chain owner (1 + (n mod 3)) (n - 1));
  for owner = 0 to 7 do
    Sim.Engine.post engine ~kind:!chain ~owner ~at:(owner mod 3) 5 0
  done;
  short :=
    Sim.Engine.register engine (fun owner n _ ->
        note owner (200 + n);
        if n > 0 then after !short owner (1 + (n mod 2)) (n - 1));
  for owner = 0 to 7 do
    Sim.Engine.post engine ~kind:!short ~owner ~at:(owner mod 4) 4 0
  done;
  (* Same-tick posting across shards, owners 1 -> 6 -> 3: each hop
     fires in the same step, a sub-round later. *)
  let hop_owner = [| -1; 1; 6; 3 |] in
  let hop = ref 0 in
  hop :=
    Sim.Engine.register engine (fun owner step _ ->
        note owner step;
        if step < 3 then after !hop hop_owner.(step + 1) 0 (step + 1));
  Sim.Engine.post engine ~kind:!hop ~owner:1 ~at:4 1 0;
  (* Posts from two shards to one owner at one tick: owner 4 must log
     them in the order their posters popped (7 before 0), not in shard
     order. *)
  let meet = ref 0 in
  meet :=
    Sim.Engine.register engine (fun owner dst tag ->
        note owner (300 + tag);
        if dst >= 0 then Sim.Engine.post engine ~kind:!meet ~owner:dst ~at:8 (-1) tag);
  Sim.Engine.post engine ~kind:!meet ~owner:7 ~at:6 4 7;
  Sim.Engine.post engine ~kind:!meet ~owner:0 ~at:6 4 0;
  Sim.Engine.run engine ~until:12;
  let mid = (snapshot (), Sim.Engine.now engine, Sim.Engine.processed engine) in
  Sim.Engine.run_all engine;
  (mid, snapshot (), Sim.Engine.now engine, Sim.Engine.processed engine)

let engine_parallel_matches_fire_loop () =
  let reference = staged_workload ~shards:1 () in
  Exec.Pool.with_pool ~domains:4 (fun pool ->
      List.iter
        (fun shards ->
          let r = staged_workload ~pool ~shards () in
          check bool (Printf.sprintf "parallel shards=%d equals fire_loop" shards) true
            (r = reference))
        [ 2; 3; 4; 8 ]);
  (* Sanity on the reference itself. *)
  let _, logs, _, _ = reference in
  check bool "both chain families fired" true
    (List.mem_assoc 100 logs.(7) && List.mem_assoc 200 logs.(7));
  check bool "the same-tick hops fired" true
    (List.mem (3, 4) logs.(3) && List.mem (2, 4) logs.(6));
  check bool "owner 4 met 7, then 0" true
    (List.filter (fun (tag, _) -> tag >= 300) logs.(4) = [ (307, 8); (300, 8) ])

(* Writes to one log shared by every shard: each event defers two
   appends (program order within its rank), and hops to another owner,
   at the same tick (a later sub-round) or a later one, so one step's
   deferred writes come from several shards and sub-rounds. A parallel
   run must write the log the sequential loop writes. *)
let deferred_log ?pool ~shards () =
  let engine = Sim.Engine.create () in
  with_sharding ?pool ~shards ~n:8 engine;
  let log = ref [] in
  let append = Sim.Engine.register engine (fun _ a b -> log := (a, b) :: !log) in
  let hop = ref 0 in
  hop :=
    Sim.Engine.register engine (fun owner left _ ->
        let now = Sim.Engine.now engine in
        Sim.Engine.defer engine ~kind:append owner now;
        Sim.Engine.defer engine ~kind:append owner left;
        if left > 0 then
          Sim.Engine.post engine ~kind:!hop ~owner:(((owner * 5) + 3) mod 8)
            ~at:(now + (left mod 2)) (left - 1) 0);
  for owner = 7 downto 0 do
    Sim.Engine.post engine ~kind:!hop ~owner ~at:(owner mod 3) (6 + owner) 0
  done;
  Sim.Engine.run_all engine;
  List.rev !log

let engine_defer_merges_in_rank_order () =
  let reference = deferred_log ~shards:1 () in
  check int "every event deferred two writes" (2 * (8 * 7 + 28)) (List.length reference);
  Exec.Pool.with_pool ~domains:4 (fun pool ->
      List.iter
        (fun shards ->
          check
            (Alcotest.list (Alcotest.pair int int))
            (Printf.sprintf "shards=%d: the log the sequential loop writes" shards)
            reference
            (deferred_log ~pool ~shards ()))
        [ 2; 3; 4 ]);
  let engine = Sim.Engine.create () in
  let log = ref [] in
  let append = Sim.Engine.register engine (fun owner a b -> log := (owner, a, b) :: !log) in
  Sim.Engine.defer engine ~kind:append 1 2;
  check
    (Alcotest.list (Alcotest.triple int int int))
    "outside a step: in place, ownerless" [ (-1, 1, 2) ] !log;
  List.iter
    (fun kind ->
      Alcotest.check_raises
        (Printf.sprintf "kind %d is not registered" kind)
        (Invalid_argument "Engine.defer: unregistered kind")
        (fun () -> Sim.Engine.defer engine ~kind 0 0))
    [ 0; append + 1; -1 ]

let engine_staged_until_boundary () =
  Exec.Pool.with_pool ~domains:4 (fun pool ->
      let engine = Sim.Engine.create () in
      Sim.Engine.set_sharding engine ~pool ~shards:4 ~n:4 ();
      let fired = Array.make 4 [] in
      let kind = Sim.Engine.register engine (fun o t _ -> fired.(o) <- t :: fired.(o)) in
      List.iter (fun t -> Sim.Engine.post engine ~kind ~owner:(t mod 4) ~at:t t 0) [ 5; 10; 15 ];
      Sim.Engine.run engine ~until:10;
      check (Alcotest.list int) "parallel run ~until fires only <= until" [ 5; 10 ]
        (List.sort compare (List.concat (Array.to_list fired)));
      check int "parallel clock at last fired event" 10 (Sim.Engine.now engine);
      check int "later event still pending" 1 (Sim.Engine.pending engine))

(* Tracing forces [fire_loop]: a traced run with a pool attached is the
   sequential run, record for record. *)
let engine_staged_traces_identical () =
  let capture ?pool shards =
    let recorder = Obs.Recorder.collecting () in
    let engine = Sim.Engine.create ~recorder () in
    with_sharding ?pool ~shards ~n:4 engine;
    let tick = ref 0 in
    tick :=
      Sim.Engine.register engine (fun owner n _ ->
          if n > 0 then
            Sim.Engine.post engine ~kind:!tick ~owner
              ~at:(Sim.Engine.now engine + 1 + owner)
              (n - 1) 0);
    for owner = 0 to 3 do
      Sim.Engine.post engine ~kind:!tick ~owner ~at:owner 4 0
    done;
    Sim.Engine.run_all engine;
    let buf = Buffer.create 256 in
    Obs.Recorder.iter recorder (fun r -> Obs.Jsonl.append buf r);
    Buffer.contents buf
  in
  let reference = capture 1 in
  Exec.Pool.with_pool ~domains:4 (fun pool ->
      List.iter
        (fun s ->
          check Alcotest.string
            (Printf.sprintf "full trace identical with a pool at shards=%d" s)
            reference (capture ~pool s))
        [ 2; 4 ])

(* A parallel step frees the pool slots of the events it fired, once
   every shard has fired: the counts stay exact step by step, and the
   engine does not grow with the number of steps. Each run beats both
   owners (one per shard) every tick; a long run must end exactly as
   large as a short one. Both cross tick 256, so the wheel's second
   level exists in both. The pools are shut down before the engines are
   measured. *)
let engine_step_releases_events () =
  let beats steps =
    let engine = Sim.Engine.create () in
    Exec.Pool.with_pool ~domains:2 (fun pool ->
        Sim.Engine.set_sharding engine ~pool ~shards:2 ~n:2 ();
        let beat = ref 0 in
        beat :=
          Sim.Engine.register engine (fun owner left _ ->
              if left > 0 then
                Sim.Engine.post engine ~kind:!beat ~owner ~at:(Sim.Engine.now engine + 1)
                  (left - 1) 0);
        Sim.Engine.post engine ~kind:!beat ~owner:0 ~at:1 steps 0;
        Sim.Engine.post engine ~kind:!beat ~owner:1 ~at:1 steps 0;
        for k = 1 to 4 do
          Sim.Engine.run engine ~until:k;
          check int "the steps fired both owners' events" (2 * k) (Sim.Engine.processed engine);
          check int "each re-posted its successor" 2 (Sim.Engine.pending engine)
        done;
        Sim.Engine.run_all engine;
        check int "every event fired" (2 * (steps + 1)) (Sim.Engine.processed engine);
        check int "none pending" 0 (Sim.Engine.pending engine));
    Obj.reachable_words (Obj.repr engine)
  in
  check int "a long run's engine is no larger than a short one's" (beats 300) (beats 4_000)

let engine_shard_of () =
  Exec.Pool.with_pool ~domains:1 (fun pool ->
      let engine = Sim.Engine.create () in
      check int "unsharded: shard 0" 0 (Sim.Engine.shard_of engine 5);
      Sim.Engine.set_sharding engine ~pool ~shards:4 ~n:10 ();
      check int "ownerless: shard 0" 0 (Sim.Engine.shard_of engine (-1));
      check int "first pid: shard 0" 0 (Sim.Engine.shard_of engine 0);
      check int "last pid: last shard" 3 (Sim.Engine.shard_of engine 9);
      check int "beyond the partition: last shard" 3 (Sim.Engine.shard_of engine 15))

(* ------------------------------ Trace ------------------------------ *)

(* An engine built without a recorder gets a disabled one. *)
let trace_disabled_by_default () =
  let r = Sim.Engine.recorder (Sim.Engine.create ()) in
  check bool "disabled" false (Obs.Recorder.tracing r);
  Obs.Recorder.mark r ~time:1 ~subject:0 ~tag:"x" "dropped";
  check int "no records" 0 (Obs.Recorder.count r)

let trace_collects () =
  let r = Obs.Recorder.collecting () in
  Obs.Recorder.mark r ~time:1 ~subject:0 ~tag:"a" "first";
  Obs.Recorder.mark r ~time:2 ~subject:1 ~tag:"b" (Printf.sprintf "n=%d" 42);
  match Obs.Recorder.records r with
  | [ { kind = Obs.Record.Mark m1; _ }; { kind = Obs.Record.Mark m2; _ } ] ->
      check Alcotest.string "tag order" "a" m1.tag;
      check Alcotest.string "formatted detail" "n=42" m2.detail;
      check int "subject" 1 m2.subject
  | l -> Alcotest.failf "expected 2 marks, got %d records" (List.length l)

(* A sink that skips structural records sees the rows
   [daemon_sim run --trace] prints. *)
let trace_sink () =
  let r = Obs.Recorder.create () in
  let rows = ref [] in
  Obs.Recorder.on_record r (fun x ->
      if not (Obs.Record.structural x.kind) then
        rows := Format.asprintf "%a" Obs.Record.pp_row x :: !rows);
  Obs.Recorder.mark r ~time:1 ~subject:0 ~tag:"hello" "";
  Obs.Recorder.sched r ~time:1 ~id:0 ~at:5;
  Obs.Recorder.phase r ~time:7 ~pid:2 ~phase:"eating";
  Obs.Recorder.phase r ~time:9 ~pid:2 ~phase:"thinking";
  Obs.Recorder.suspect r ~time:12 ~observer:3 ~target:1 ~on:true;
  Obs.Recorder.suspect r ~time:40 ~observer:3 ~target:1 ~on:false;
  Obs.Recorder.crash r ~time:41 ~pid:1;
  check (Alcotest.list Alcotest.string) "sink called, rows rendered"
    [
      "[       1] p0   hello          ";
      "[       7] p2   eat            ";
      "[       9] p2   think          ";
      "[      12] p3   suspect        p1";
      "[      40] p3   unsuspect      p1";
      "[      41] p1   crash          ";
    ]
    (List.rev !rows)

(* The pool grows to a burst's high-water mark and gives the memory
   back at the next [run] once the burst has drained. *)
let engine_pool_trims () =
  let engine = Sim.Engine.create () in
  let fired = ref 0 in
  let kind = Sim.Engine.register engine (fun _ _ _ -> incr fired) in
  ignore (Sim.Engine.post engine ~kind ~owner:0 ~at:1 0 0);
  Sim.Engine.run_all engine;
  let before = Obj.reachable_words (Obj.repr engine) in
  for i = 1 to 10_000 do
    ignore (Sim.Engine.post engine ~kind ~owner:(i land 7) ~at:(1 + i) i 0)
  done;
  let peak = Obj.reachable_words (Obj.repr engine) in
  Sim.Engine.run_all engine;
  ignore (Sim.Engine.post engine ~kind ~owner:0 ~at:(Sim.Engine.now engine + 1) 0 0);
  Sim.Engine.run_all engine;
  let after = Obj.reachable_words (Obj.repr engine) in
  check int "every event fired" 10_002 !fired;
  check bool (Printf.sprintf "the burst grew the engine (%d -> %d words)" before peak) true
    (peak > 10 * before);
  check bool (Printf.sprintf "trimmed back to %d words, within 2x of %d" after before) true
    (after <= 2 * before)

(* Regression: [post] promised no allocation once the pool had grown,
   but an event 256 or more ticks ahead cost the wheel a list cell, and
   a tick refilled by a cascade regrew its level-0 value array, past 256
   words straight in the major heap. Delays from 1 to 300 000 ticks
   reach wheel levels 0-2 and cascade through both upper ones; once a
   first round has grown the pool, the links and those levels, a second
   round allocates nothing on either heap. *)
let engine_warm_allocates_nothing () =
  let engine = Sim.Engine.create () in
  let fired = ref 0 in
  let kind = ref 0 in
  let delay i = 1 + (i * 7919 mod 300_000) in
  kind :=
    Sim.Engine.register engine (fun owner i hops ->
        incr fired;
        if hops > 0 then
          Sim.Engine.post engine ~kind:!kind ~owner ~at:(Sim.Engine.now engine + delay (i + 1))
            (i + 1) (hops - 1));
  let round () =
    let now = Sim.Engine.now engine in
    for i = 0 to 499 do
      Sim.Engine.post engine ~kind:!kind ~owner:(i land 7) ~at:(now + delay i) i 2
    done;
    Sim.Engine.run_all engine
  in
  round ();
  let words = Alloc.words round in
  check int "every event fired" 3_000 !fired;
  check (Alcotest.float 0.) "words for the second round's 1 500 events" 0. words

(* The event pool against a reference queue: random interleavings of
   data and closure posts, handler posts (a data event with chain c > 0
   posts its successor c ticks later), and bounded runs, whose exits
   trim the pool. The reference is a set ordered by (time, post order);
   the engine must fire the same events, in the same order, with the
   same payloads. *)
type pool_op = Post of bool * int * int | Burst of int | Run of int

let engine_pool_matches_reference =
  let op =
    QCheck.Gen.(
      frequency
        [
          (6, map3 (fun closure d c -> Post (closure, d, c)) bool (int_range 0 300) (int_range 0 3));
          (1, map (fun d -> Burst d) (int_range 0 300));
          (1, map (fun d -> Run d) (int_range 0 400));
        ])
  in
  QCheck.Test.make ~name:"engine: the pool matches a reference queue" ~count:300
    QCheck.(make Gen.(list_size (int_range 0 200) op))
    (fun ops ->
      let engine = Sim.Engine.create () in
      let log = ref [] and serial = ref 0 in
      let kind = ref 0 in
      let handler owner a b =
        log := (Sim.Engine.now engine, owner, a, b) :: !log;
        if b > 0 then begin
          incr serial;
          ignore
            (Sim.Engine.post engine ~kind:!kind ~owner ~at:(Sim.Engine.now engine + b) !serial
               (b - 1))
        end
      in
      kind := Sim.Engine.register engine handler;
      (* The reference: pending (at, order, owner, a, chain or -1 for a
         closure). *)
      let module Q = Set.Make (struct
        type t = int * int * int * int * int

        let compare = compare
      end) in
      let pending = ref Q.empty in
      let order = ref 0 and m_serial = ref 0 and m_log = ref [] in
      let m_add at owner a b =
        pending := Q.add (at, !order, owner, a, b) !pending;
        incr order
      in
      let rec m_run until =
        match Q.min_elt_opt !pending with
        | Some ((at, _, owner, a, b) as ev) when at <= until ->
            pending := Q.remove ev !pending;
            m_log := (at, owner, a, b) :: !m_log;
            if b > 0 then begin
              incr m_serial;
              m_add (at + b) owner !m_serial (b - 1)
            end;
            m_run until
        | _ -> ()
      in
      let rec apply = function
        | Post (closure, delay, chain) ->
            incr serial;
            incr m_serial;
            let n = !serial and at = Sim.Engine.now engine + delay in
            let owner = n mod 5 in
            if closure then
              Sim.Engine.schedule engine ~owner ~at (fun () ->
                  log := (Sim.Engine.now engine, owner, n, -1) :: !log)
            else Sim.Engine.post engine ~kind:!kind ~owner ~at n chain;
            m_add at owner !m_serial (if closure then -1 else chain)
        | Burst d ->
            (* Enough events to grow the pool past chunk 0, with
               spread-out times so later runs leave stragglers in
               high chunks. *)
            for i = 0 to 79 do
              apply (Post (i mod 9 = 0, d + (i * 7 mod 400), 0))
            done
        | Run d ->
            let until = Sim.Engine.now engine + d in
            Sim.Engine.run engine ~until;
            m_run until
      in
      List.iter apply ops;
      Sim.Engine.run_all engine;
      m_run max_int;
      !log = !m_log && Sim.Engine.processed engine = List.length !m_log)

(* Closures never reach a sharded engine: [schedule] refuses one, and
   sharding is refused while a closure is pending. One shard keeps the
   sequential loop, so it accepts both. *)
let engine_sharded_refuses_closures () =
  Exec.Pool.with_pool ~domains:1 (fun pool ->
      let raises f = match f () with () -> false | exception Invalid_argument _ -> true in
      let sharded = Sim.Engine.create () in
      Sim.Engine.set_sharding sharded ~pool ~shards:2 ~n:4 ();
      check bool "schedule on a sharded engine raises" true
        (raises (fun () -> Sim.Engine.schedule sharded ~owner:1 ~at:5 ignore));
      check bool "schedule_after too" true
        (raises (fun () -> Sim.Engine.schedule_after sharded ~delay:5 ignore));
      check int "nothing was queued" 0 (Sim.Engine.pending sharded);
      let engine = Sim.Engine.create () in
      let fired = ref false in
      Sim.Engine.schedule engine ~owner:1 ~at:5 (fun () -> fired := true);
      check bool "sharding with a closure pending raises" true
        (raises (fun () -> Sim.Engine.set_sharding engine ~pool ~shards:2 ~n:4 ()));
      check int "the refused engine is unsharded" 0 (Sim.Engine.shards engine);
      Sim.Engine.set_sharding engine ~pool ~shards:1 ~n:4 ();
      check int "one shard is accepted" 1 (Sim.Engine.shards engine);
      Sim.Engine.run_all engine;
      check bool "the closure fired" true !fired;
      Sim.Engine.set_sharding engine ~pool ~shards:2 ~n:4 ();
      check int "with none pending, sharding is accepted" 2 (Sim.Engine.shards engine);
      (* A closure's cell is freed before it runs, as its slot is: it is
         no longer pending, so it may shard its own engine. *)
      let engine = Sim.Engine.create () in
      Sim.Engine.schedule engine ~at:1 (fun () ->
          check int "the firing closure is not pending" 0 (Sim.Engine.pending engine);
          Sim.Engine.set_sharding engine ~pool ~shards:2 ~n:4 ());
      Sim.Engine.run_all engine;
      check int "a firing closure may shard its engine" 2 (Sim.Engine.shards engine))

let suite =
  [
    Alcotest.test_case "time: saturating addition" `Quick time_add_saturates;
    Alcotest.test_case "time: predicates and printing" `Quick time_predicates;
    Alcotest.test_case "rng: determinism" `Quick rng_deterministic;
    Alcotest.test_case "rng: seed sensitivity" `Quick rng_seed_sensitivity;
    Alcotest.test_case "rng: split_named stable" `Quick rng_split_named_stable;
    Alcotest.test_case "rng: split_named distinct" `Quick rng_split_named_distinct;
    Alcotest.test_case "rng: shuffle permutes" `Quick rng_shuffle_permutes;
    Alcotest.test_case "rng: split independence" `Quick rng_split_independent;
    Alcotest.test_case "rng: pick covers the array" `Quick rng_pick_uniformish;
    Alcotest.test_case "rng: exponential positive" `Quick rng_exponential_positive;
    QCheck_alcotest.to_alcotest rng_ranges;
    QCheck_alcotest.to_alcotest rng_float_range;
    Alcotest.test_case "pqueue: orders by priority" `Quick pqueue_orders;
    Alcotest.test_case "pqueue: FIFO ties" `Quick pqueue_fifo_ties;
    Alcotest.test_case "pqueue: interleaved ops" `Quick pqueue_interleaved;
    Alcotest.test_case "pqueue: empty pops" `Quick pqueue_empty_pop;
    Alcotest.test_case "pqueue: clear" `Quick pqueue_clear;
    QCheck_alcotest.to_alcotest pqueue_sorts;
    Alcotest.test_case "wheel: orders by priority" `Quick wheel_orders;
    Alcotest.test_case "wheel: FIFO ties" `Quick wheel_fifo_ties;
    Alcotest.test_case "wheel: spans every level" `Quick wheel_multilevel_spans;
    Alcotest.test_case "wheel: rejects below the floor" `Quick wheel_floor_rejects_past;
    QCheck_alcotest.to_alcotest wheel_matches_pqueue;
    QCheck_alcotest.to_alcotest wheel_pop_until_matches_pqueue;
    Alcotest.test_case "wheel: ctz32 on every single-bit word" `Quick wheel_ctz32_single_bits;
    QCheck_alcotest.to_alcotest wheel_ctz32_random;
    Alcotest.test_case "wheel: an add/pop/cascade storm allocates nothing once links exist" `Quick
      wheel_storm_allocates_nothing;
    Alcotest.test_case "wheel: a popped handle can be re-added immediately" `Quick
      wheel_readd_after_pop;
    Alcotest.test_case "wheel: same-tick FIFO across epochs" `Quick wheel_fifo_across_epochs;
    Alcotest.test_case "engine: fires in time order" `Quick engine_fires_in_order;
    Alcotest.test_case "engine: FIFO at equal times" `Quick engine_same_time_fifo;
    Alcotest.test_case "engine: run ~until" `Quick engine_until_bound;
    Alcotest.test_case "engine: rejects past events" `Quick engine_rejects_past;
    Alcotest.test_case "engine: handlers schedule more events" `Quick engine_nested_scheduling;
    Alcotest.test_case "engine: infinity is a no-op" `Quick engine_infinity_noop;
    Alcotest.test_case "queues: reject prio = infinity, keep max_int - 1" `Quick
      queue_rejects_infinity;
    Alcotest.test_case "engine: saturated delay is a no-op (held behind pending events)" `Quick
      (engine_saturated_delay_noop ~behind:[ 70_000; 12; 300 ]);
    Alcotest.test_case "engine: saturated delay is a no-op (when idle)" `Quick
      (engine_saturated_delay_noop ~behind:[]);
    Alcotest.test_case "engine: staged traces byte-identical" `Quick
      engine_staged_traces_identical;
    Alcotest.test_case "engine: shard_of at the partition edges" `Quick engine_shard_of;
    Alcotest.test_case "trace: disabled by default" `Quick trace_disabled_by_default;
    Alcotest.test_case "trace: collects records" `Quick trace_collects;
    Alcotest.test_case "trace: callback sink" `Quick trace_sink;
    Alcotest.test_case "rng: stream pinned" `Quick rng_stream_pinned;
    Alcotest.test_case "rng: draws allocate nothing" `Quick rng_draws_allocate_nothing;
    Alcotest.test_case "engine: the event pool trims after a burst" `Quick engine_pool_trims;
    QCheck_alcotest.to_alcotest engine_pool_matches_reference;
    Alcotest.test_case "engine: a warm engine's events allocate nothing at any wheel level" `Quick
      engine_warm_allocates_nothing;
    Alcotest.test_case "engine: a sharded engine refuses closures" `Quick
      engine_sharded_refuses_closures;
  ]

(* The engine's parallel step, in the [parallel] suite (test/main.ml). *)
let parallel =
  [
    Alcotest.test_case "engine: parallel stepping equals fire_loop" `Quick
      engine_parallel_matches_fire_loop;
    Alcotest.test_case "engine: staged run ~until boundary" `Quick engine_staged_until_boundary;
    Alcotest.test_case "engine: a parallel step releases its events" `Quick
      engine_step_releases_events;
    Alcotest.test_case "engine: deferred writes merge in rank order" `Quick
      engine_defer_merges_in_rank_order;
  ]
