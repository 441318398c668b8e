(* Tests for the domain pool: deterministic ordering, exception
   propagation, and the sequential fallback. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let init_ordered () =
  Exec.Pool.with_pool ~domains:4 (fun pool ->
      let a = Exec.Pool.init pool 100 (fun i -> i * i) in
      check bool "results in index order" true (a = Array.init 100 (fun i -> i * i)))

let map_preserves_order () =
  Exec.Pool.with_pool ~domains:4 (fun pool ->
      let l = Exec.Pool.map_list pool (fun x -> 2 * x) [ 5; 1; 9; 3 ] in
      check (Alcotest.list int) "map_list order" [ 10; 2; 18; 6 ] l;
      let a = Exec.Pool.map_array pool String.length [| "a"; "bcd"; "" |] in
      check bool "map_array order" true (a = [| 1; 3; 0 |]))

let sequential_fallback_same_results () =
  let f i = (i * 7919) mod 1000 in
  let par = Exec.Pool.with_pool ~domains:4 (fun p -> Exec.Pool.init p 50 f) in
  let seq = Exec.Pool.with_pool ~domains:1 (fun p -> Exec.Pool.init p 50 f) in
  check bool "domains:4 = domains:1" true (par = seq)

let exception_propagates () =
  Exec.Pool.with_pool ~domains:4 (fun pool ->
      match Exec.Pool.init pool 10 (fun i -> if i >= 3 then failwith (string_of_int i) else i) with
      | _ -> Alcotest.fail "expected an exception"
      | exception Failure msg ->
          (* Lowest failing index wins, no matter which domain ran it. *)
          check Alcotest.string "lowest-index exception" "3" msg);
  (* The pool survives a failing batch. *)
  Exec.Pool.with_pool ~domains:4 (fun pool ->
      let a = Exec.Pool.init pool 5 Fun.id in
      check bool "usable after failure" true (a = [| 0; 1; 2; 3; 4 |]))

let empty_and_size () =
  Exec.Pool.with_pool ~domains:3 (fun pool ->
      check int "size" 3 (Exec.Pool.size pool);
      check bool "empty batch" true (Exec.Pool.init pool 0 (fun _ -> assert false) = [||]));
  check bool "default domains >= 1" true (Exec.Pool.default_domains () >= 1)

let shutdown_idempotent () =
  let pool = Exec.Pool.create ~domains:2 () in
  let a = Exec.Pool.init pool 8 Fun.id in
  Exec.Pool.shutdown pool;
  Exec.Pool.shutdown pool;
  check bool "results before shutdown" true (a = Array.init 8 Fun.id)

let successive_batches () =
  Exec.Pool.with_pool ~domains:4 (fun pool ->
      for n = 1 to 20 do
        let a = Exec.Pool.init pool n (fun i -> i + n) in
        if a <> Array.init n (fun i -> i + n) then Alcotest.failf "batch %d wrong" n
      done)

(* Regression: a body raising inside [run_batch] used to skip the
   completion count, leaving the submitter waiting on [completed = n]
   forever. Run the batch on a helper domain and fail via watchdog
   rather than hanging the whole suite if the deadlock comes back. *)
let run_batch_exception_safe () =
  let outcome = Atomic.make None in
  let worker =
    Domain.spawn (fun () ->
        Exec.Pool.with_pool ~domains:4 (fun pool ->
            let ran = Array.make 12 false in
            let result =
              try
                Exec.Pool.run_batch pool 12 (fun i ->
                    ran.(i) <- true;
                    if i mod 3 = 1 then failwith (string_of_int i));
                Error "no exception"
              with Failure msg -> Ok (msg, Array.for_all Fun.id ran)
            in
            (* The pool survives a failing batch. *)
            let again = Exec.Pool.init pool 5 Fun.id in
            Atomic.set outcome (Some (result, again = [| 0; 1; 2; 3; 4 |]))))
  in
  let deadline = Unix.gettimeofday () +. 10.0 in
  while Atomic.get outcome = None && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.01
  done;
  match Atomic.get outcome with
  | None -> Alcotest.fail "run_batch deadlocked on a raising body"
  | Some (result, reusable) ->
      Domain.join worker;
      (match result with
      | Ok (msg, all_ran) ->
          check Alcotest.string "lowest-index exception" "1" msg;
          check bool "every index still ran" true all_ran
      | Error what -> Alcotest.failf "expected Failure, got %s" what);
      check bool "pool reusable after failure" true reusable

let run_batch_sequential_exception_safe () =
  Exec.Pool.with_pool ~domains:1 (fun pool ->
      let ran = Array.make 7 false in
      (match
         Exec.Pool.run_batch pool 7 (fun i ->
             ran.(i) <- true;
             if i = 2 || i = 5 then failwith (string_of_int i))
       with
      | () -> Alcotest.fail "expected an exception"
      | exception Failure msg -> check Alcotest.string "lowest-index exception" "2" msg);
      check bool "every index still ran" true (Array.for_all Fun.id ran))

(* Regression: submitting a batch from inside a running batch used to
   silently overwrite the pool's current-batch slot — workers of the
   outer batch picked up the inner one's tasks and both completion
   counts went wrong (lost tasks, or a submitter stuck forever). The
   pool must reject nested and concurrent submissions loudly instead.
   Watchdog-guarded: on pre-fix code this test hangs rather than
   fails. *)
let run_batch_rejects_nested () =
  let outcome = Atomic.make None in
  let worker =
    Domain.spawn (fun () ->
        Exec.Pool.with_pool ~domains:4 (fun pool ->
            let nested =
              try
                Exec.Pool.run_batch pool 4 (fun i ->
                    if i = 2 then Exec.Pool.run_batch pool 3 (fun _ -> ()));
                Error "no exception"
              with
              | Invalid_argument _ -> Ok ()
              | e -> Error (Printexc.to_string e)
            in
            (* The pool survives the rejected submission. *)
            let again = Exec.Pool.init pool 5 Fun.id in
            Atomic.set outcome (Some (nested, again = [| 0; 1; 2; 3; 4 |]))))
  in
  let deadline = Unix.gettimeofday () +. 10.0 in
  while Atomic.get outcome = None && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.01
  done;
  match Atomic.get outcome with
  | None -> Alcotest.fail "nested run_batch deadlocked instead of raising"
  | Some (nested, reusable) ->
      Domain.join worker;
      (match nested with
      | Ok () -> ()
      | Error what -> Alcotest.failf "expected Invalid_argument, got %s" what);
      check bool "pool reusable after rejection" true reusable

(* Same guard for the sequential fallback (domains = 1): nesting there
   would reenter the submitter's own drain loop. *)
let run_batch_rejects_nested_sequential () =
  Exec.Pool.with_pool ~domains:1 (fun pool ->
      let rejected =
        match
          Exec.Pool.run_batch pool 3 (fun i ->
              if i = 0 then Exec.Pool.run_batch pool 2 (fun _ -> ()))
        with
        | () -> false
        | exception Invalid_argument _ -> true
      in
      check bool "sequential nesting rejected" true rejected;
      check (Alcotest.array int) "pool reusable" [| 0; 1 |] (Exec.Pool.init pool 2 Fun.id))

(* Two distinct pools may nest freely — only same-pool reentrancy is a
   bug. Each outer task submits to an inner pool of its own: the outer
   pool's two domains run outer tasks at the same time, and two of them
   submitting to one shared inner pool would be a concurrent
   submission, which the pool rightly rejects. *)
let run_batch_distinct_pools_nest () =
  let inner = Array.init 3 (fun _ -> Exec.Pool.create ~domains:2 ()) in
  Fun.protect
    ~finally:(fun () -> Array.iter Exec.Pool.shutdown inner)
    (fun () ->
      Exec.Pool.with_pool ~domains:2 (fun outer ->
          let hits = Atomic.make 0 in
          Exec.Pool.run_batch outer 3 (fun i ->
              Exec.Pool.run_batch inner.(i) 2 (fun _ -> Atomic.incr hits));
          check int "all inner tasks ran" 6 (Atomic.get hits)))

let matches_array_init =
  QCheck.Test.make ~name:"exec: init = Array.init for any size/domains" ~count:50
    QCheck.(pair (int_bound 200) (int_range 1 6))
    (fun (n, domains) ->
      let f i = (i * 31) lxor n in
      Exec.Pool.with_pool ~domains (fun p -> Exec.Pool.init p n f) = Array.init n f)

let suite =
  [
    Alcotest.test_case "pool: init keeps index order" `Quick init_ordered;
    Alcotest.test_case "pool: maps preserve order" `Quick map_preserves_order;
    Alcotest.test_case "pool: sequential fallback agrees" `Quick sequential_fallback_same_results;
    Alcotest.test_case "pool: lowest-index exception propagates" `Quick exception_propagates;
    Alcotest.test_case "pool: empty batch and size" `Quick empty_and_size;
    Alcotest.test_case "pool: shutdown idempotent" `Quick shutdown_idempotent;
    Alcotest.test_case "pool: many successive batches" `Quick successive_batches;
    Alcotest.test_case "pool: run_batch survives raising bodies" `Quick run_batch_exception_safe;
    Alcotest.test_case "pool: sequential run_batch survives raising bodies" `Quick
      run_batch_sequential_exception_safe;
    Alcotest.test_case "pool: rejects nested submission" `Quick run_batch_rejects_nested;
    Alcotest.test_case "pool: rejects nested submission (sequential)" `Quick
      run_batch_rejects_nested_sequential;
    Alcotest.test_case "pool: distinct pools nest freely" `Quick run_batch_distinct_pools_nest;
    QCheck_alcotest.to_alcotest matches_array_init;
  ]
