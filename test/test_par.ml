(* Tests for the one-shot domain fan-out: result ordering, exception
   propagation, the jobs=1 degenerate case, supervised outcomes,
   nested-submit rejection and the domain cap. *)

exception Boom of int

let test_map_preserves_order () =
  let tasks = List.init 50 (fun i () -> i * i) in
  Alcotest.(check (list int))
    "results in input order"
    (List.init 50 (fun i -> i * i))
    (Par.map ~jobs:4 tasks)

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

(* Tasks that return, raise and time out, on 3 workers: every slot
   comes back classified, in input order. *)
let test_outcomes_in_order () =
  let tasks =
    List.init 10 (fun i (c : Par.Control.t) ->
        match i mod 3 with
        | 0 -> i
        | 1 -> raise (Boom i)
        | _ ->
            Unix.sleepf 0.02;
            Par.Control.check c;
            i)
  in
  let expected =
    List.init 10 (fun i ->
        match i mod 3 with 0 -> "ok" | 1 -> "failed" | _ -> "timeout")
  in
  let outcomes = Par.map_outcomes ~jobs:3 ~timeout:0.005 tasks in
  Alcotest.(check (list string))
    "labels in input order" expected
    (List.map Par.outcome_label outcomes);
  List.iteri
    (fun i o ->
      match o with
      | Par.Ok v -> Alcotest.(check int) "value" i v
      | Par.Failed { exn = Boom j; _ } -> Alcotest.(check int) "raised by" i j
      | Par.Timed_out { after } -> Alcotest.(check (float 1e-9)) "budget" 0.005 after
      | _ -> Alcotest.failf "slot %d: unexpected %s" i (Par.outcome_label o))
    outcomes

let test_nested_submit_rejected () =
  match Par.map ~jobs:2 [ (fun () -> Par.map ~jobs:2 [ (fun () -> 0) ]) ] with
  | _ -> Alcotest.fail "nested submit should raise"
  | exception Invalid_argument _ -> ()

let test_empty_batch () =
  Alcotest.(check (list int)) "empty batch" [] (Par.map ~jobs:4 []);
  Alcotest.(check (list string))
    "empty supervised batch" []
    (List.map Par.outcome_label (Par.map_outcomes ~jobs:4 []))

(* The runtime allows 128 domains in all.  A batch that would need more
   worker domains than that is rejected before anything is spawned or
   run; the cap applies to [min jobs n], not to [jobs]. *)
let test_jobs_validated () =
  let ran = Atomic.make 0 in
  let tasks = List.init 200 (fun i () -> Atomic.incr ran; i) in
  (match Par.map ~jobs:1000 tasks with
  | _ -> Alcotest.fail "jobs=1000 over 200 tasks should raise"
  | exception Invalid_argument _ -> ());
  Alcotest.(check int) "no task ran" 0 (Atomic.get ran);
  Alcotest.(check (list int)) "jobs capped by the batch size" [ 0; 1; 2 ]
    (Par.map ~jobs:1000 (List.init 3 (fun i () -> i)));
  Alcotest.(check (list int)) "jobs=0 runs serially" [ 0; 1 ]
    (Par.map ~jobs:0 (List.init 2 (fun i () -> i)))

let () =
  Alcotest.run "par"
    [
      ( "pool",
        [
          Alcotest.test_case "map order" `Quick test_map_preserves_order;
          Alcotest.test_case "exception propagation" `Quick
            test_exception_propagates_lowest_index;
          Alcotest.test_case "jobs=1 degenerate" `Quick test_jobs_one_runs_in_caller;
          Alcotest.test_case "outcomes in order on 3 workers" `Quick
            test_outcomes_in_order;
          Alcotest.test_case "nested submit rejected" `Quick
            test_nested_submit_rejected;
          Alcotest.test_case "empty batch" `Quick test_empty_batch;
          Alcotest.test_case "jobs validated before any spawn" `Quick
            test_jobs_validated;
        ] );
    ]
