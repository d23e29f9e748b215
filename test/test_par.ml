(* Tests for the domain-pool fan-out layer: result ordering, exception
   propagation, the jobs=1 degenerate case, nested-submit rejection and
   pool lifecycle. *)

exception Boom of int

let test_map_preserves_order () =
  let tasks = List.init 50 (fun i () -> i * i) in
  Alcotest.(check (list int))
    "results in input order"
    (List.init 50 (fun i -> i * i))
    (Par.map ~jobs:4 tasks)

let test_pool_map_preserves_order () =
  let pool = Par.Pool.create ~jobs:3 () in
  Fun.protect
    ~finally:(fun () -> Par.Pool.shutdown pool)
    (fun () ->
      Alcotest.(check int) "jobs" 3 (Par.Pool.jobs pool);
      let tasks = List.init 20 (fun i () -> string_of_int i) in
      Alcotest.(check (list string))
        "pool results in input order"
        (List.init 20 string_of_int)
        (Par.Pool.map pool tasks);
      (* The pool is reusable across batches. *)
      Alcotest.(check (list int)) "second batch" [ 1; 2; 3 ]
        (Par.Pool.map pool [ (fun () -> 1); (fun () -> 2); (fun () -> 3) ]))

let test_exception_propagates_lowest_index () =
  let ran = Atomic.make 0 in
  let tasks =
    List.init 10 (fun i () ->
        Atomic.incr ran;
        if i = 3 || i = 7 then raise (Boom i);
        i)
  in
  (match Par.map ~jobs:4 tasks with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom i ->
      Alcotest.(check int) "lowest failing index wins" 3 i);
  (* Every task still ran to completion before the raise. *)
  Alcotest.(check int) "all tasks ran" 10 (Atomic.get ran)

let test_jobs_one_runs_in_caller () =
  (* jobs=1 must not spawn domains: tasks see the caller's domain. *)
  let caller = Domain.self () in
  let domains = Par.map ~jobs:1 (List.init 5 (fun _ () -> Domain.self ())) in
  List.iter
    (fun d -> Alcotest.(check bool) "ran in calling domain" true (d = caller))
    domains;
  (* Same run-everything-then-raise semantics as the pool path. *)
  let ran = Atomic.make 0 in
  let tasks =
    List.init 4 (fun i () ->
        Atomic.incr ran;
        if i = 1 then raise (Boom i))
  in
  (match Par.map ~jobs:1 tasks with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom i -> Alcotest.(check int) "index" 1 i);
  Alcotest.(check int) "all tasks ran" 4 (Atomic.get ran)

let test_nested_submit_rejected () =
  let pool = Par.Pool.create ~jobs:2 () in
  Fun.protect
    ~finally:(fun () -> Par.Pool.shutdown pool)
    (fun () ->
      match
        Par.Pool.map pool
          [ (fun () -> Par.Pool.map pool [ (fun () -> 0) ]) ]
      with
      | _ -> Alcotest.fail "nested submit should raise"
      | exception Invalid_argument _ -> ())

let test_empty_and_shutdown () =
  Alcotest.(check (list int)) "empty batch" [] (Par.map ~jobs:4 []);
  let pool = Par.Pool.create ~jobs:2 () in
  Alcotest.(check (list int)) "empty pool batch" [] (Par.Pool.map pool []);
  Par.Pool.shutdown pool;
  Par.Pool.shutdown pool;
  (* idempotent *)
  match Par.Pool.map pool [ (fun () -> 1) ] with
  | _ -> Alcotest.fail "map after shutdown should raise"
  | exception Invalid_argument _ -> ()

let test_create_validates_jobs () =
  (match Par.Pool.create ~jobs:0 () with
  | _ -> Alcotest.fail "jobs=0 should raise"
  | exception Invalid_argument _ -> ());
  match Par.Pool.create ~jobs:1000 () with
  | _ -> Alcotest.fail "jobs=1000 should raise"
  | exception Invalid_argument _ -> ()

let () =
  Alcotest.run "par"
    [
      ( "pool",
        [
          Alcotest.test_case "map order" `Quick test_map_preserves_order;
          Alcotest.test_case "pool map order + reuse" `Quick
            test_pool_map_preserves_order;
          Alcotest.test_case "exception propagation" `Quick
            test_exception_propagates_lowest_index;
          Alcotest.test_case "jobs=1 degenerate" `Quick test_jobs_one_runs_in_caller;
          Alcotest.test_case "nested submit rejected" `Quick
            test_nested_submit_rejected;
          Alcotest.test_case "empty batch + shutdown" `Quick test_empty_and_shutdown;
          Alcotest.test_case "create validates jobs" `Quick test_create_validates_jobs;
        ] );
    ]
