(* Unit tests for the Netsim substrate: event heap, engine, queues, links,
   topology routing and multicast trees. *)

let check_float = Alcotest.(check (float 1e-9))

(* ----------------------------------------------------------- Event_heap *)

(* The shared scheduler core, with [int] messages ([-1] is the dummy). *)
let new_heap () = Event_heap.create ~dummy:(-1)

let cell = { Event_heap.cell_time = 0. }

(* Steps until the heap is empty; returns the count. *)
let drain h =
  let n = ref 0 in
  while Event_heap.step h ~limit:infinity ~into:cell ~pre:ignore do
    incr n
  done;
  !n

let test_heap_order () =
  let h = new_heap () in
  let fired = ref [] in
  let add time tag =
    ignore (Event_heap.add h ~time (fun () -> fired := tag :: !fired))
  in
  add 3.0 "c";
  add 1.0 "a";
  add 2.0 "b";
  ignore (drain h);
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (List.rev !fired)

let test_heap_fifo_ties () =
  let h = new_heap () in
  let fired = ref [] in
  for i = 0 to 9 do
    ignore (Event_heap.add h ~time:1.0 (fun () -> fired := i :: !fired))
  done;
  ignore (drain h);
  Alcotest.(check (list int)) "insertion order on ties" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.rev !fired)

let test_heap_cancel () =
  let h = new_heap () in
  let fired = ref 0 in
  let keep = Event_heap.add h ~time:1.0 (fun () -> incr fired) in
  let drop = Event_heap.add h ~time:2.0 (fun () -> incr fired) in
  ignore keep;
  Event_heap.cancel h drop;
  Alcotest.(check int) "live size after cancel" 1 (Event_heap.size h);
  Alcotest.(check int) "one step" 1 (drain h);
  Alcotest.(check int) "only live event fired" 1 !fired

let test_heap_cancel_idempotent () =
  let h = new_heap () in
  let e = Event_heap.add h ~time:1.0 ignore in
  Event_heap.cancel h e;
  Event_heap.cancel h e;
  Alcotest.(check int) "size zero" 0 (Event_heap.size h)

let test_heap_grows () =
  let h = new_heap () in
  for i = 0 to 999 do
    ignore (Event_heap.add h ~time:(float_of_int (999 - i)) ignore)
  done;
  Alcotest.(check int) "all live" 1000 (Event_heap.size h);
  let prev = ref neg_infinity and n = ref 0 in
  let pre () =
    if cell.cell_time < !prev then Alcotest.fail "heap order violated";
    prev := cell.cell_time;
    incr n
  in
  while Event_heap.step h ~limit:infinity ~into:cell ~pre do
    ()
  done;
  Alcotest.(check int) "popped all" 1000 !n

let test_heap_fast_path () =
  let h = new_heap () in
  let log = ref [] in
  let pre () = log := Printf.sprintf "pre@%g" cell.Event_heap.cell_time :: !log in
  let step limit = Event_heap.step h ~limit ~into:cell ~pre in
  Alcotest.(check bool) "empty -> false" false (step infinity);
  let add time tag = ignore (Event_heap.add h ~time (fun () -> log := tag :: !log)) in
  add 2.0 "b";
  add 1.0 "a";
  Alcotest.(check bool) "nothing due before 0.5" false (step 0.5);
  Alcotest.(check (list string)) "nothing ran" [] !log;
  Alcotest.(check bool) "fires the min" true (step 1.0);
  check_float "clock written" 1.0 cell.Event_heap.cell_time;
  Alcotest.(check bool) "b not due at 1.5" false (step 1.5);
  Alcotest.(check bool) "fires b" true (step infinity);
  Alcotest.(check (list string)) "pre runs after the clock write, before the callback"
    [ "pre@1"; "a"; "pre@2"; "b" ] (List.rev !log);
  Alcotest.(check bool) "drained -> false" false (step infinity);
  Alcotest.(check int) "size zero" 0 (Event_heap.size h);
  (* Steady state: one schedule and one dispatch per event on a heap
     with a backlog, so neither growth nor the empty heap is measured.
     The only allocation allowed is the boxed [~time] argument. *)
  let h = Event_heap.create ~dummy:Netsim.Packet.dummy in
  let cb () = () and msg (_ : Netsim.Packet.t) (_ : int) = () in
  let p =
    Netsim.Packet.make ~flow:1 ~size:100 ~src:0 ~dst:(Netsim.Packet.Unicast 1)
      ~created:0. (Netsim.Packet.Raw 0)
  in
  for i = 0 to 999 do
    Event_heap.add_unit h ~time:(float_of_int i) cb
  done;
  let words_per_event schedule =
    let n = 10_000 in
    let before = Gc.minor_words () in
    for i = 1 to n do
      schedule (float_of_int (1000 + i));
      ignore (Event_heap.step h ~limit:infinity ~into:cell ~pre:ignore)
    done;
    (Gc.minor_words () -. before) /. float_of_int n
  in
  let check_words what w =
    if w > 2.0 then
      Alcotest.failf "%s+step allocates %.2f words per event (max 2)" what w
  in
  check_words "add_msg" (words_per_event (fun time -> Event_heap.add_msg h ~time msg p 0));
  check_words "add_unit" (words_per_event (fun time -> Event_heap.add_unit h ~time cb));
  Alcotest.(check bool) "still well-formed" true (Event_heap.well_formed h)

(* A handle outlives its event: once the event fired (or was cancelled)
   its slot is reused, and the stale handle must not cancel the new
   occupant. *)
let test_heap_stale_handle () =
  let h = new_heap () in
  let fired = ref [] in
  let add time tag = Event_heap.add h ~time (fun () -> fired := tag :: !fired) in
  let a = add 1.0 "a" in
  ignore (drain h);
  (* b takes a's slot *)
  let b = add 2.0 "b" in
  Event_heap.cancel h a;
  Alcotest.(check int) "fired handle cancels nothing" 1 (Event_heap.size h);
  Event_heap.cancel h b;
  let _c = add 3.0 "c" in
  (* purging the cancelled root frees b's slot, and d takes it *)
  ignore (Event_heap.peek_time h);
  let _d = add 4.0 "d" in
  Event_heap.cancel h b;
  Event_heap.cancel h a;
  Alcotest.(check int) "cancelled handle cancels nothing" 2 (Event_heap.size h);
  ignore (drain h);
  Alcotest.(check (list string)) "fire order" [ "a"; "c"; "d" ] (List.rev !fired)

(* Model-based check of the heap against a list sorted by (time, seq).
   Random programs of add / add_unit / add_msg / cancel / step ~limit
   run against the heap and against the model; both must fire the same
   entries in the same order, at the same times.  Callbacks act too:
   they spawn entries at or after their own time (zero-delay chains
   included), cancel entries and raise.  Cancels go through any handle
   ever returned: pending, fired, cancelled, or naming a slot since
   reused.  A raising entry is consumed, its step raises, and every
   other entry stays pending.  After every operation the live [size]
   and [well_formed] must agree with the model.  Integer times make ties
   common. *)
type heap_action = Quiet | Spawn of int * int | Cancel_id of int | Raise

type heap_op =
  | Op_add of int * heap_action
  | Op_add_unit of int * heap_action
  | Op_add_msg of int * bool (* raises *)
  | Op_cancel of int
  | Op_step of int option

let show_action = function
  | Quiet -> ""
  | Spawn (d, k) -> Printf.sprintf " spawn(+%d,%d)" d k
  | Cancel_id j -> Printf.sprintf " cancel(#%d)" j
  | Raise -> " raise"

let show_heap_op = function
  | Op_add (t, a) -> Printf.sprintf "add %d%s" t (show_action a)
  | Op_add_unit (t, a) -> Printf.sprintf "add_unit %d%s" t (show_action a)
  | Op_add_msg (t, r) -> Printf.sprintf "add_msg %d%s" t (if r then " raise" else "")
  | Op_cancel k -> Printf.sprintf "cancel #%d" k
  | Op_step None -> "step inf"
  | Op_step (Some l) -> Printf.sprintf "step %d" l

let heap_op_gen =
  QCheck.Gen.(
    let time = int_range 0 12 in
    let action =
      frequency
        [
          (4, return Quiet);
          (1, map2 (fun d k -> Spawn (d, k)) (int_bound 2) (int_bound 3));
          (1, map (fun j -> Cancel_id j) (int_bound 60));
          (1, return Raise);
        ]
    in
    frequency
      [
        (3, map2 (fun t a -> Op_add (t, a)) time action);
        (2, map2 (fun t a -> Op_add_unit (t, a)) time action);
        (2, map2 (fun t r -> Op_add_msg (t, r = 0)) time (int_bound 5));
        (2, map (fun k -> Op_cancel k) (int_bound 60));
        (3, map (fun l -> Op_step l) (opt ~ratio:0.8 time));
      ])

let child = function Spawn (d, k) when k > 0 -> Spawn (d, k - 1) | _ -> Quiet

exception Boom

(* Both interpreters number entries in schedule order, so an id is also
   the heap's insertion seq.  The trace holds each fired (id, time),
   (-2, 0.) where a step raised, and (-1, size) after each operation;
   [peek_time] is compared before the final drain. *)
let limit_of = function None -> infinity | Some l -> float_of_int l

let run_heap ops =
  let h = new_heap () in
  let handles = Hashtbl.create 64 in
  let trace = ref [] and next_id = ref 0 and ok = ref true in
  let fire id = trace := (id, cell.Event_heap.cell_time) :: !trace in
  let msg id raises =
    fire id;
    if raises = 1 then raise Boom
  in
  let rec sched ~handle time action =
    let id = !next_id in
    incr next_id;
    let fn () =
      fire id;
      act action
    in
    if handle then Hashtbl.replace handles id (Event_heap.add h ~time fn)
    else Event_heap.add_unit h ~time fn
  and act = function
    | Quiet -> ()
    | Spawn (d, _) as a ->
        sched ~handle:true (cell.Event_heap.cell_time +. float_of_int d) (child a)
    | Cancel_id j -> Option.iter (Event_heap.cancel h) (Hashtbl.find_opt handles j)
    | Raise -> raise Boom
  in
  let step limit =
    match Event_heap.step h ~limit ~into:cell ~pre:ignore with
    | fired -> fired
    | exception Boom ->
        trace := (-2, 0.) :: !trace;
        true
  in
  List.iter
    (fun op ->
      (match op with
      | Op_add (t, a) -> sched ~handle:true (float_of_int t) a
      | Op_add_unit (t, a) -> sched ~handle:false (float_of_int t) a
      | Op_add_msg (t, raises) ->
          let id = !next_id in
          incr next_id;
          Event_heap.add_msg h ~time:(float_of_int t) msg id (Bool.to_int raises)
      | Op_cancel j -> Option.iter (Event_heap.cancel h) (Hashtbl.find_opt handles j)
      | Op_step limit -> ignore (step (limit_of limit)));
      if not (Event_heap.well_formed h) then ok := false;
      trace := (-1, float_of_int (Event_heap.size h)) :: !trace)
    ops;
  let peek = Event_heap.peek_time h in
  while step infinity do
    ()
  done;
  (List.rev !trace, peek, !ok)

type model_entry = Closure of heap_action * bool (* has a handle *) | Msg of bool

let run_model ops =
  let pending = ref [] (* sorted by (time, id) *) in
  let trace = ref [] and next_id = ref 0 in
  let add time entry =
    let id = !next_id in
    incr next_id;
    pending := List.merge compare !pending [ (time, id, entry) ]
  in
  let cancel j =
    pending :=
      List.filter
        (function _, id, Closure (_, true) -> id <> j | _ -> true)
        !pending
  in
  let step limit =
    match !pending with
    | (time, id, entry) :: rest when time <= limit -> (
        pending := rest;
        trace := (id, time) :: !trace;
        match entry with
        | Closure (Quiet, _) | Msg false -> true
        | Closure ((Spawn (d, _) as a), _) ->
            add (time +. float_of_int d) (Closure (child a, true));
            true
        | Closure (Cancel_id j, _) ->
            cancel j;
            true
        | Closure (Raise, _) | Msg true ->
            trace := (-2, 0.) :: !trace;
            true)
    | _ -> false
  in
  List.iter
    (fun op ->
      (match op with
      | Op_add (t, a) -> add (float_of_int t) (Closure (a, true))
      | Op_add_unit (t, a) -> add (float_of_int t) (Closure (a, false))
      | Op_add_msg (t, raises) -> add (float_of_int t) (Msg raises)
      | Op_cancel j -> cancel j
      | Op_step limit -> ignore (step (limit_of limit)));
      trace := (-1, float_of_int (List.length !pending)) :: !trace)
    ops;
  let peek = match !pending with (time, _, _) :: _ -> Some time | [] -> None in
  while step infinity do
    ()
  done;
  (List.rev !trace, peek, true)

let prop_heap_model =
  QCheck.Test.make ~name:"event heap matches a sorted-list model" ~count:300
    QCheck.(
      make
        ~print:(fun ops -> String.concat "; " (List.map show_heap_op ops))
        Gen.(list_size (int_range 0 200) heap_op_gen))
    (fun ops -> run_heap ops = run_model ops)

let test_heap_peek_time_skips_cancelled () =
  let h = new_heap () in
  let cancelled = Event_heap.add h ~time:1.0 ignore in
  ignore (Event_heap.add h ~time:2.0 ignore);
  Event_heap.cancel h cancelled;
  Alcotest.(check (option (float 1e-9)))
    "cancelled root skipped" (Some 2.0) (Event_heap.peek_time h);
  Alcotest.(check int) "one live" 1 (Event_heap.size h)

(* --------------------------------------------------------------- Engine *)

let test_engine_time_advances () =
  let e = Netsim.Engine.create () in
  let seen = ref [] in
  ignore (Netsim.Engine.at e ~time:1.5 (fun () -> seen := Netsim.Engine.now e :: !seen));
  ignore (Netsim.Engine.at e ~time:0.5 (fun () -> seen := Netsim.Engine.now e :: !seen));
  Netsim.Engine.run e;
  Alcotest.(check (list (float 1e-9))) "times" [ 0.5; 1.5 ] (List.rev !seen)

let test_engine_until () =
  let e = Netsim.Engine.create () in
  let fired = ref 0 in
  ignore (Netsim.Engine.at e ~time:1.0 (fun () -> incr fired));
  ignore (Netsim.Engine.at e ~time:5.0 (fun () -> incr fired));
  Netsim.Engine.run ~until:2.0 e;
  Alcotest.(check int) "only first fired" 1 !fired;
  check_float "clock at until" 2.0 (Netsim.Engine.now e);
  Netsim.Engine.run e;
  Alcotest.(check int) "second fires on resume" 2 !fired

(* No event time is ever past a NaN [until]: rejected before anything
   fires, where it used to run every event (and spin forever on a
   periodic one). *)
let test_engine_nan_until () =
  let e = Netsim.Engine.create () in
  let fired = ref 0 in
  ignore (Netsim.Engine.at e ~time:1.0 (fun () -> incr fired));
  (match Netsim.Engine.run ~until:Float.nan e with
  | () -> Alcotest.fail "run ~until:nan returned"
  | exception Invalid_argument _ -> ());
  Alcotest.(check int) "nothing fired" 0 !fired;
  check_float "clock unmoved" 0. (Netsim.Engine.now e)

let test_engine_stop () =
  let e = Netsim.Engine.create () in
  let fired = ref 0 in
  ignore
    (Netsim.Engine.at e ~time:1.0 (fun () ->
         incr fired;
         Netsim.Engine.stop e));
  ignore (Netsim.Engine.at e ~time:2.0 (fun () -> incr fired));
  Netsim.Engine.run e;
  Alcotest.(check int) "stopped after first" 1 !fired

let test_engine_rejects_past () =
  let e = Netsim.Engine.create () in
  ignore (Netsim.Engine.at e ~time:1.0 ignore);
  Netsim.Engine.run e;
  Alcotest.(check bool) "raises on past schedule" true
    (try
       ignore (Netsim.Engine.at e ~time:0.5 ignore);
       false
     with Invalid_argument _ -> true)

let test_engine_nested_schedule () =
  let e = Netsim.Engine.create () in
  let log = ref [] in
  ignore
    (Netsim.Engine.at e ~time:1.0 (fun () ->
         log := "outer" :: !log;
         ignore (Netsim.Engine.after e ~delay:1.0 (fun () -> log := "inner" :: !log))));
  Netsim.Engine.run e;
  Alcotest.(check (list string)) "nested events run" [ "outer"; "inner" ] (List.rev !log);
  check_float "final time" 2.0 (Netsim.Engine.now e)

(* Dispatch order under exact timestamp ties: (time, seq), and every
   way out of [run] mid-tie (cancel, stop, exception, watchdog) leaves
   the unfired siblings pending in that order. *)

exception Tie_abort

(* Three events at t = 1 logging "a", "b", "c" in schedule order; [a]
   runs [first] before logging.  Returns the log and c's handle. *)
let tied_triple e ~first =
  let log = ref [] in
  let push tag () = log := tag :: !log in
  ignore
    (Netsim.Engine.at e ~time:1.0 (fun () ->
         first ();
         push "a" ()));
  ignore (Netsim.Engine.at e ~time:1.0 (push "b"));
  let c = Netsim.Engine.at e ~time:1.0 (push "c") in
  (log, c)

let test_engine_tie_cancel () =
  let e = Netsim.Engine.create () in
  let c = ref None in
  let log, handle =
    tied_triple e ~first:(fun () -> Netsim.Engine.cancel e (Option.get !c))
  in
  c := Some handle;
  Netsim.Engine.run e;
  Alcotest.(check (list string)) "cancelled tie suppressed" [ "a"; "b" ]
    (List.rev !log);
  Alcotest.(check int) "nothing pending" 0 (Netsim.Engine.pending_events e)

let test_engine_tie_stop () =
  let e = Netsim.Engine.create () in
  let log, _ = tied_triple e ~first:(fun () -> Netsim.Engine.stop e) in
  Netsim.Engine.run e;
  Alcotest.(check (list string)) "stopped after first" [ "a" ] (List.rev !log);
  Alcotest.(check int) "two pending" 2 (Netsim.Engine.pending_events e);
  check_float "clock at the tie" 1.0 (Netsim.Engine.now e);
  Netsim.Engine.run e;
  Alcotest.(check (list string)) "siblings in seq order" [ "a"; "b"; "c" ]
    (List.rev !log)

let test_engine_tie_exception () =
  let e = Netsim.Engine.create () in
  let armed = ref true in
  let log, _ =
    tied_triple e ~first:(fun () ->
        if !armed then begin
          armed := false;
          raise Tie_abort
        end)
  in
  Alcotest.check_raises "callback exception propagates" Tie_abort (fun () ->
      Netsim.Engine.run e);
  Alcotest.(check (list string)) "nothing logged" [] !log;
  Alcotest.(check int) "siblings pending" 2 (Netsim.Engine.pending_events e);
  Netsim.Engine.run e;
  Alcotest.(check (list string)) "siblings fire on next run" [ "b"; "c" ]
    (List.rev !log)

let test_engine_tie_watchdog () =
  let e = Netsim.Engine.create () in
  let log, _ = tied_triple e ~first:ignore in
  Netsim.Engine.set_watchdog e ~every_events:2 (fun () -> raise Tie_abort);
  Alcotest.check_raises "watchdog raise propagates" Tie_abort (fun () ->
      Netsim.Engine.run e);
  Alcotest.(check (list string)) "two fired" [ "a"; "b" ] (List.rev !log);
  Alcotest.(check int) "events processed" 2 (Netsim.Engine.events_processed e);
  Alcotest.(check int) "third pending" 1 (Netsim.Engine.pending_events e);
  Netsim.Engine.clear_watchdog e;
  Netsim.Engine.run e;
  Alcotest.(check (list string)) "third fires on next run" [ "a"; "b"; "c" ]
    (List.rev !log)

(* ----------------------------------------------------------- Queue_disc *)

let test_droptail_fifo () =
  let q = Netsim.Queue_disc.droptail ~capacity_pkts:10 in
  let mk i =
    Netsim.Packet.make ~flow:0 ~size:100 ~src:0 ~dst:(Netsim.Packet.Unicast 1)
      ~created:0. (Netsim.Packet.Raw i)
  in
  List.iter (fun i -> ignore (Netsim.Queue_disc.enqueue q (mk i))) [ 1; 2; 3 ];
  let pop () =
    match Netsim.Queue_disc.dequeue q with
    | Some { Netsim.Packet.payload = Netsim.Packet.Raw i; _ } -> i
    | _ -> Alcotest.fail "expected Raw packet"
  in
  let first = pop () in
  let second = pop () in
  let third = pop () in
  Alcotest.(check (list int)) "FIFO order" [ 1; 2; 3 ] [ first; second; third ]

let test_droptail_capacity () =
  let q = Netsim.Queue_disc.droptail ~capacity_pkts:2 in
  let mk () =
    Netsim.Packet.make ~flow:0 ~size:100 ~src:0 ~dst:(Netsim.Packet.Unicast 1)
      ~created:0. (Netsim.Packet.Raw 0)
  in
  Alcotest.(check bool) "1st accepted" true (Netsim.Queue_disc.enqueue q (mk ()));
  Alcotest.(check bool) "2nd accepted" true (Netsim.Queue_disc.enqueue q (mk ()));
  Alcotest.(check bool) "3rd dropped" false (Netsim.Queue_disc.enqueue q (mk ()));
  Alcotest.(check int) "drop count" 1 (Netsim.Queue_disc.drops q);
  Alcotest.(check int) "length" 2 (Netsim.Queue_disc.length q)

let test_droptail_byte_accounting () =
  let q = Netsim.Queue_disc.droptail ~capacity_pkts:10 in
  let mk size =
    Netsim.Packet.make ~flow:0 ~size ~src:0 ~dst:(Netsim.Packet.Unicast 1)
      ~created:0. (Netsim.Packet.Raw 0)
  in
  ignore (Netsim.Queue_disc.enqueue q (mk 100));
  ignore (Netsim.Queue_disc.enqueue q (mk 250));
  Alcotest.(check int) "bytes" 350 (Netsim.Queue_disc.byte_length q);
  ignore (Netsim.Queue_disc.dequeue q);
  Alcotest.(check int) "bytes after dequeue" 250 (Netsim.Queue_disc.byte_length q)

let test_red_drops_under_sustained_load () =
  let rng = Stats.Rng.create 1 in
  let q = Netsim.Queue_disc.red ~rng ~capacity_pkts:20 () in
  let mk () =
    Netsim.Packet.make ~flow:0 ~size:100 ~src:0 ~dst:(Netsim.Packet.Unicast 1)
      ~created:0. (Netsim.Packet.Raw 0)
  in
  (* Fill and hold the queue deep; RED's average crosses min_thresh and
     early drops must appear even though the instantaneous queue never
     exceeds capacity. *)
  let early_drops = ref 0 in
  for _ = 1 to 2000 do
    if not (Netsim.Queue_disc.enqueue q (mk ())) then incr early_drops;
    if Netsim.Queue_disc.length q > 12 then ignore (Netsim.Queue_disc.dequeue q)
  done;
  Alcotest.(check bool) "RED produced drops" true (!early_drops > 0)

let test_red_accepts_when_empty () =
  let rng = Stats.Rng.create 2 in
  let q = Netsim.Queue_disc.red ~rng ~capacity_pkts:20 () in
  let mk () =
    Netsim.Packet.make ~flow:0 ~size:100 ~src:0 ~dst:(Netsim.Packet.Unicast 1)
      ~created:0. (Netsim.Packet.Raw 0)
  in
  Alcotest.(check bool) "accepts at low occupancy" true (Netsim.Queue_disc.enqueue q (mk ()))

(* ----------------------------------------------------------- Loss_model *)

let test_loss_none () =
  for _ = 1 to 100 do
    if Netsim.Loss_model.drops_packet Netsim.Loss_model.none then
      Alcotest.fail "none dropped a packet"
  done

let test_loss_bernoulli_rate () =
  let rng = Stats.Rng.create 3 in
  let m = Netsim.Loss_model.bernoulli ~rng ~p:0.2 in
  let drops = ref 0 in
  let n = 50_000 in
  for _ = 1 to n do
    if Netsim.Loss_model.drops_packet m then incr drops
  done;
  Alcotest.(check (float 0.01)) "drop rate" 0.2 (float_of_int !drops /. float_of_int n)

let test_loss_gilbert_bursty () =
  let rng = Stats.Rng.create 4 in
  let m =
    Netsim.Loss_model.gilbert_elliott ~rng ~p_good_to_bad:0.01 ~p_bad_to_good:0.2
      ~loss_good:0. ~loss_bad:0.5
  in
  let drops = ref 0 in
  let n = 100_000 in
  for _ = 1 to n do
    if Netsim.Loss_model.drops_packet m then incr drops
  done;
  let rate = float_of_int !drops /. float_of_int n in
  (* Stationary bad-state probability = 0.01/0.21; loss = 0.5 * that. *)
  Alcotest.(check (float 0.01)) "long-run loss" (0.5 *. (0.01 /. 0.21)) rate

let test_loss_gilbert_empirical_matches_hint () =
  (* Both states lossy: the empirical drop rate over 100k draws must
     match the stationary average that loss_rate_hint advertises. *)
  let rng = Stats.Rng.create 5 in
  let m =
    Netsim.Loss_model.gilbert_elliott ~rng ~p_good_to_bad:0.02 ~p_bad_to_good:0.1
      ~loss_good:0.01 ~loss_bad:0.5
  in
  let drops = ref 0 in
  let n = 100_000 in
  for _ = 1 to n do
    if Netsim.Loss_model.drops_packet m then incr drops
  done;
  Alcotest.(check (float 0.01)) "empirical = hint"
    (Netsim.Loss_model.loss_rate_hint m)
    (float_of_int !drops /. float_of_int n)

let test_loss_gilbert_chain_transitions () =
  (* Deterministic chain: p_gb = p_bg = 1 alternates state every draw,
     starting in good. *)
  let rng = Stats.Rng.create 6 in
  let m =
    Netsim.Loss_model.gilbert_elliott ~rng ~p_good_to_bad:1. ~p_bad_to_good:1.
      ~loss_good:0. ~loss_bad:0.
  in
  Alcotest.(check bool) "starts good" false (Netsim.Loss_model.in_bad m);
  ignore (Netsim.Loss_model.drops_packet m);
  Alcotest.(check bool) "first draw flips to bad" true (Netsim.Loss_model.in_bad m);
  ignore (Netsim.Loss_model.drops_packet m);
  Alcotest.(check bool) "second draw flips back" false (Netsim.Loss_model.in_bad m)

let test_loss_gilbert_hint_degenerate () =
  let rng = Stats.Rng.create 7 in
  (* Frozen chain: both transition probabilities zero — the process never
     leaves its initial good state, so the hint is loss_good. *)
  let frozen =
    Netsim.Loss_model.gilbert_elliott ~rng ~p_good_to_bad:0. ~p_bad_to_good:0.
      ~loss_good:0.05 ~loss_bad:0.9
  in
  Alcotest.(check (float 1e-12)) "frozen chain" 0.05
    (Netsim.Loss_model.loss_rate_hint frozen);
  (* Absorbing bad state: p_bad_to_good = 0 with p_good_to_bad > 0. *)
  let absorbed =
    Netsim.Loss_model.gilbert_elliott ~rng ~p_good_to_bad:1. ~p_bad_to_good:0.
      ~loss_good:0.05 ~loss_bad:0.9
  in
  Alcotest.(check (float 1e-12)) "absorbed in bad" 0.9
    (Netsim.Loss_model.loss_rate_hint absorbed)

let test_loss_describe () =
  let rng = Stats.Rng.create 8 in
  Alcotest.(check string) "none" "none" (Netsim.Loss_model.describe Netsim.Loss_model.none);
  Alcotest.(check string) "bernoulli" "bernoulli(p=0.1)"
    (Netsim.Loss_model.describe (Netsim.Loss_model.bernoulli ~rng ~p:0.1));
  let ge =
    Netsim.Loss_model.gilbert_elliott ~rng ~p_good_to_bad:0.02 ~p_bad_to_good:0.1
      ~loss_good:0. ~loss_bad:0.5
  in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  let s = Netsim.Loss_model.describe ge in
  List.iter
    (fun sub ->
      Alcotest.(check bool)
        (Printf.sprintf "%S mentions %S" s sub)
        true (contains s sub))
    [ "gilbert-elliott"; "p_gb=0.02"; "stationary=" ];
  let d = Netsim.Loss_model.describe (Netsim.Loss_model.dynamic ge) in
  Alcotest.(check bool) "dynamic wraps inner" true
    (String.length d > 8 && String.sub d 0 8 = "dynamic(")

let test_loss_dynamic_switch () =
  let rng = Stats.Rng.create 9 in
  let d = Netsim.Loss_model.dynamic Netsim.Loss_model.none in
  for _ = 1 to 50 do
    if Netsim.Loss_model.drops_packet d then Alcotest.fail "none must not drop"
  done;
  Netsim.Loss_model.set_dynamic d (Netsim.Loss_model.bernoulli ~rng ~p:1.);
  Alcotest.(check (float 1e-12)) "hint follows inner" 1.
    (Netsim.Loss_model.loss_rate_hint d);
  Alcotest.(check bool) "drops after switch" true (Netsim.Loss_model.drops_packet d);
  Alcotest.check_raises "non-dynamic target rejected"
    (Invalid_argument "Loss_model.set_dynamic: not a dynamic model") (fun () ->
      Netsim.Loss_model.set_dynamic Netsim.Loss_model.none Netsim.Loss_model.none);
  Alcotest.check_raises "nested dynamic rejected"
    (Invalid_argument "Loss_model.set_dynamic: nested dynamic model") (fun () ->
      Netsim.Loss_model.set_dynamic d (Netsim.Loss_model.dynamic Netsim.Loss_model.none))

(* ------------------------------------------------------ Link + Topology *)

let two_node_topo ?loss_ab ?(bandwidth_bps = 1e6) ?(delay_s = 0.01) () =
  let e = Netsim.Engine.create () in
  let topo = Netsim.Topology.create e in
  let a = Netsim.Topology.add_node topo in
  let b = Netsim.Topology.add_node topo in
  let _ =
    Netsim.Topology.connect topo ?loss_ab ~bandwidth_bps ~delay_s a b
  in
  (e, topo, a, b)

let test_link_ttl_drop_counted () =
  (* A packet that exceeded the TTL must be dropped *and* accounted:
     packets_lost, the registry counter, and the trace all see it. *)
  let sink = Obs.Sink.create () in
  let e = Netsim.Engine.create ~obs:sink () in
  let topo = Netsim.Topology.create e in
  let a = Netsim.Topology.add_node topo in
  let b = Netsim.Topology.add_node topo in
  let ab, _ = Netsim.Topology.connect topo ~bandwidth_bps:1e6 ~delay_s:0.01 a b in
  let tr = Netsim.Trace.create () in
  Netsim.Trace.attach tr ab;
  let delivered = ref 0 in
  Netsim.Node.attach b (fun _ -> incr delivered);
  let p =
    Netsim.Packet.make ~flow:1 ~size:100 ~src:(Netsim.Node.id a)
      ~dst:(Netsim.Packet.Unicast (Netsim.Node.id b))
      ~created:0. (Netsim.Packet.Raw 0)
  in
  Netsim.Packet.set_hops p Netsim.Packet.ttl_limit;
  (* Link.send bumps hops once more, pushing it over the limit. *)
  Netsim.Link.send ab p;
  Netsim.Engine.run e;
  Alcotest.(check int) "not delivered" 0 !delivered;
  Alcotest.(check int) "counted as lost" 1 (Netsim.Link.packets_lost ab);
  Alcotest.(check int) "registry counter" 1
    (Obs.Metrics.sum_counters sink.Obs.Sink.metrics "netsim_link_drop_ttl_total");
  Alcotest.(check int) "traced" 1
    (Netsim.Trace.count tr ~kind:Netsim.Trace.Drop_ttl)

let test_link_delivery_latency () =
  let e, topo, a, b = two_node_topo () in
  let arrival = ref nan in
  Netsim.Node.attach b (fun _ -> arrival := Netsim.Engine.now e);
  let p =
    Netsim.Packet.make ~flow:1 ~size:1000 ~src:(Netsim.Node.id a)
      ~dst:(Netsim.Packet.Unicast (Netsim.Node.id b))
      ~created:0. (Netsim.Packet.Raw 0)
  in
  Netsim.Topology.inject topo p;
  Netsim.Engine.run e;
  (* tx = 1000*8/1e6 = 8 ms; prop = 10 ms. *)
  check_float "latency = tx + prop" 0.018 !arrival

let test_link_serialization () =
  (* Two packets injected back-to-back: second arrives one tx-time later. *)
  let e, topo, a, b = two_node_topo () in
  let arrivals = ref [] in
  Netsim.Node.attach b (fun _ -> arrivals := Netsim.Engine.now e :: !arrivals);
  let mk () =
    Netsim.Packet.make ~flow:1 ~size:1000 ~src:(Netsim.Node.id a)
      ~dst:(Netsim.Packet.Unicast (Netsim.Node.id b))
      ~created:0. (Netsim.Packet.Raw 0)
  in
  Netsim.Topology.inject topo (mk ());
  Netsim.Topology.inject topo (mk ());
  Netsim.Engine.run e;
  match List.rev !arrivals with
  | [ t1; t2 ] ->
      check_float "first" 0.018 t1;
      check_float "second spaced by tx time" 0.026 t2
  | l -> Alcotest.failf "expected 2 arrivals, got %d" (List.length l)

let test_link_loss_applied () =
  let rng = Stats.Rng.create 9 in
  let e, topo, a, b =
    two_node_topo ~loss_ab:(Netsim.Loss_model.bernoulli ~rng ~p:1.0) ()
  in
  let got = ref 0 in
  Netsim.Node.attach b (fun _ -> incr got);
  let p =
    Netsim.Packet.make ~flow:1 ~size:1000 ~src:(Netsim.Node.id a)
      ~dst:(Netsim.Packet.Unicast (Netsim.Node.id b))
      ~created:0. (Netsim.Packet.Raw 0)
  in
  Netsim.Topology.inject topo p;
  Netsim.Engine.run e;
  Alcotest.(check int) "all lost" 0 !got;
  let link = Option.get (Netsim.Topology.link_between topo a b) in
  Alcotest.(check int) "loss counted" 1 (Netsim.Link.packets_lost link)

let chain_topo n =
  (* 0 - 1 - 2 - ... - (n-1) *)
  let e = Netsim.Engine.create () in
  let topo = Netsim.Topology.create e in
  let nodes = Netsim.Topology.add_nodes topo n in
  for i = 0 to n - 2 do
    ignore
      (Netsim.Topology.connect topo ~bandwidth_bps:1e7 ~delay_s:0.001 nodes.(i)
         nodes.(i + 1))
  done;
  (e, topo, nodes)

let test_unicast_multihop () =
  let e, topo, nodes = chain_topo 5 in
  let got = ref 0 in
  Netsim.Node.attach nodes.(4) (fun _ -> incr got);
  let p =
    Netsim.Packet.make ~flow:1 ~size:500 ~src:0 ~dst:(Netsim.Packet.Unicast 4)
      ~created:0. (Netsim.Packet.Raw 0)
  in
  Netsim.Topology.inject topo p;
  Netsim.Engine.run e;
  Alcotest.(check int) "delivered over 4 hops" 1 !got

let test_no_delivery_at_intermediate () =
  let e, topo, nodes = chain_topo 3 in
  let mid = ref 0 and final = ref 0 in
  Netsim.Node.attach nodes.(1) (fun _ -> incr mid);
  Netsim.Node.attach nodes.(2) (fun _ -> incr final);
  let p =
    Netsim.Packet.make ~flow:1 ~size:500 ~src:0 ~dst:(Netsim.Packet.Unicast 2)
      ~created:0. (Netsim.Packet.Raw 0)
  in
  Netsim.Topology.inject topo p;
  Netsim.Engine.run e;
  Alcotest.(check int) "not delivered at router" 0 !mid;
  Alcotest.(check int) "delivered at destination" 1 !final

let test_path_and_hops () =
  let _, topo, nodes = chain_topo 4 in
  (match Netsim.Topology.path topo ~src:nodes.(0) ~dst:nodes.(3) with
  | Some p ->
      Alcotest.(check (list int)) "path node ids" [ 0; 1; 2; 3 ]
        (List.map Netsim.Node.id p)
  | None -> Alcotest.fail "expected a path");
  Alcotest.(check (option int)) "hops" (Some 3)
    (Netsim.Topology.hop_count topo ~src:nodes.(0) ~dst:nodes.(3))

let star_topo n_leaves =
  let e = Netsim.Engine.create () in
  let topo = Netsim.Topology.create e in
  let hub = Netsim.Topology.add_node topo in
  let leaves = Netsim.Topology.add_nodes topo n_leaves in
  Array.iter
    (fun leaf ->
      ignore (Netsim.Topology.connect topo ~bandwidth_bps:1e7 ~delay_s:0.001 hub leaf))
    leaves;
  (e, topo, hub, leaves)

let test_multicast_fanout () =
  let e, topo, _hub, leaves = star_topo 5 in
  let group = 1 in
  let sender = leaves.(0) in
  let received = Array.make 5 0 in
  Array.iteri
    (fun i leaf ->
      Netsim.Topology.join topo ~group leaf;
      Netsim.Node.attach leaf (fun _ -> received.(i) <- received.(i) + 1))
    leaves;
  let p =
    Netsim.Packet.make ~flow:1 ~size:500 ~src:(Netsim.Node.id sender)
      ~dst:(Netsim.Packet.Multicast group) ~created:0. (Netsim.Packet.Raw 0)
  in
  Netsim.Topology.inject topo p;
  Netsim.Engine.run e;
  Alcotest.(check int) "sender does not hear itself" 0 received.(0);
  for i = 1 to 4 do
    Alcotest.(check int) (Printf.sprintf "leaf %d got one copy" i) 1 received.(i)
  done

let test_multicast_shared_link_single_copy () =
  (* sender - hub - {a, b}: the sender->hub link must carry ONE copy. *)
  let e, topo, hub, leaves = star_topo 3 in
  let group = 7 in
  let sender = leaves.(0) in
  Netsim.Topology.join topo ~group leaves.(1);
  Netsim.Topology.join topo ~group leaves.(2);
  let p =
    Netsim.Packet.make ~flow:1 ~size:500 ~src:(Netsim.Node.id sender)
      ~dst:(Netsim.Packet.Multicast group) ~created:0. (Netsim.Packet.Raw 0)
  in
  Netsim.Topology.inject topo p;
  Netsim.Engine.run e;
  let uplink = Option.get (Netsim.Topology.link_between topo sender hub) in
  Alcotest.(check int) "one copy on shared uplink" 1 (Netsim.Link.packets_sent uplink);
  let down1 = Option.get (Netsim.Topology.link_between topo hub leaves.(1)) in
  let down2 = Option.get (Netsim.Topology.link_between topo hub leaves.(2)) in
  Alcotest.(check int) "copy on branch 1" 1 (Netsim.Link.packets_sent down1);
  Alcotest.(check int) "copy on branch 2" 1 (Netsim.Link.packets_sent down2)

let test_multicast_join_leave () =
  let e, topo, _hub, leaves = star_topo 3 in
  let group = 2 in
  let sender = leaves.(0) in
  let got = ref 0 in
  Netsim.Topology.join topo ~group leaves.(1);
  Netsim.Node.attach leaves.(1) (fun _ -> incr got);
  let send () =
    let p =
      Netsim.Packet.make ~flow:1 ~size:500 ~src:(Netsim.Node.id sender)
        ~dst:(Netsim.Packet.Multicast group) ~created:(Netsim.Engine.now e)
        (Netsim.Packet.Raw 0)
    in
    Netsim.Topology.inject topo p
  in
  send ();
  Netsim.Engine.run e;
  Alcotest.(check int) "received while joined" 1 !got;
  Netsim.Topology.leave topo ~group leaves.(1);
  send ();
  Netsim.Engine.run e;
  Alcotest.(check int) "not received after leave" 1 !got

let test_multicast_membership_api () =
  let _, topo, _hub, leaves = star_topo 3 in
  Netsim.Topology.join topo ~group:5 leaves.(0);
  Netsim.Topology.join topo ~group:5 leaves.(2);
  Netsim.Topology.join topo ~group:5 leaves.(2);
  Alcotest.(check bool) "member" true (Netsim.Topology.is_member topo ~group:5 leaves.(0));
  Alcotest.(check bool) "non-member" false
    (Netsim.Topology.is_member topo ~group:5 leaves.(1));
  Alcotest.(check int) "join idempotent" 2
    (List.length (Netsim.Topology.members topo ~group:5))

(* Fan-out under tree-cache invalidation.  Topology: sources s1, s2 and
   members hang off router r; a and b and c are r's leaves, d sits
   behind a.  Every node logs "name<-tag" on local delivery, so the log
   pins both the delivery set and the order (same-time arrivals fire in
   send order, i.e. tree child order).  The expected logs pin that
   behaviour: a change to the tree cache must reproduce them. *)
let fan_topo () =
  let e = Netsim.Engine.create () in
  let topo = Netsim.Topology.create e in
  let names = [| "s1"; "s2"; "r"; "a"; "b"; "c"; "d" |] in
  let nodes = Array.map (fun _ -> Netsim.Topology.add_node topo) names in
  let connect i j =
    ignore
      (Netsim.Topology.connect topo ~bandwidth_bps:1e7 ~delay_s:0.001 nodes.(i)
         nodes.(j))
  in
  List.iter (fun (i, j) -> connect i j) [ (0, 2); (1, 2); (2, 3); (2, 4); (2, 5); (3, 6) ];
  let log = ref [] in
  let logger name (p : Netsim.Packet.t) =
    let tag = match p.payload with Netsim.Packet.Raw k -> k | _ -> -1 in
    log := Printf.sprintf "%s<-%d" name tag :: !log
  in
  Array.iteri (fun i n -> Netsim.Node.attach n (logger names.(i))) nodes;
  let send ~src ~group tag =
    Netsim.Topology.inject topo
      (Netsim.Packet.make ~flow:1 ~size:500 ~src:(Netsim.Node.id src)
         ~dst:(Netsim.Packet.Multicast group) ~created:(Netsim.Engine.now e)
         (Netsim.Packet.Raw tag))
  in
  let drain () =
    let l = List.rev !log in
    log := [];
    l
  in
  (e, topo, nodes, send, drain)

let check_log = Alcotest.(check (list string))

let test_fanout_leave_in_handler () =
  let e, topo, nodes, send, drain = fan_topo () in
  let s1 = nodes.(0) and r = nodes.(2) and a = nodes.(3) and c = nodes.(5) in
  let g = 1 in
  Array.iteri (fun i n -> if i >= 2 then Netsim.Topology.join topo ~group:g n) nodes;
  (* a leaves on its first packet: it still gets that packet (membership
     is read before delivery) and keeps forwarding to d.  r, an interior
     member, removes c while handling packet 1: r's children are read
     after its handlers ran, so packet 1 no longer reaches c. *)
  Netsim.Node.attach a (fun _ -> Netsim.Topology.leave topo ~group:g a);
  Netsim.Node.attach r (fun p ->
      match p.Netsim.Packet.payload with
      | Netsim.Packet.Raw 1 -> Netsim.Topology.leave topo ~group:g c
      | _ -> ());
  List.iter
    (fun tag ->
      send ~src:s1 ~group:g tag;
      Netsim.Engine.run e)
    [ 0; 1; 2 ];
  check_log "deliveries"
    [ "r<-0"; "b<-0"; "c<-0"; "a<-0"; "d<-0"; "r<-1"; "b<-1"; "d<-1"; "r<-2";
      "b<-2"; "d<-2" ]
    (drain ())

let test_fanout_node_added_after_cache () =
  let e, topo, nodes, send, drain = fan_topo () in
  let s1 = nodes.(0) and r = nodes.(2) and b = nodes.(4) in
  let g = 3 in
  Netsim.Topology.join topo ~group:g b;
  let round tag =
    send ~src:s1 ~group:g tag;
    Netsim.Engine.run e
  in
  let late = ref [] in
  let add_late name =
    let n = Netsim.Topology.add_node topo in
    Netsim.Node.attach n (fun p ->
        match p.Netsim.Packet.payload with
        | Netsim.Packet.Raw k -> late := Printf.sprintf "%s<-%d" name k :: !late
        | _ -> ());
    n
  in
  (* Each step below follows a send that cached the tree. *)
  round 0;
  let n = add_late "n" in
  round 1;
  ignore (Netsim.Topology.connect topo ~bandwidth_bps:1e7 ~delay_s:0.001 r n);
  round 2;
  Netsim.Topology.join topo ~group:g n;
  round 3;
  (* A second late node behind the first, joined before it is
     connected. *)
  let m = add_late "m" in
  Netsim.Topology.join topo ~group:g m;
  round 4;
  ignore (Netsim.Topology.connect topo ~bandwidth_bps:1e7 ~delay_s:0.001 n m);
  round 5;
  check_log "existing members" [ "b<-0"; "b<-1"; "b<-2"; "b<-3"; "b<-4"; "b<-5" ] (drain ());
  check_log "late nodes" [ "n<-3"; "n<-4"; "n<-5"; "m<-5" ] (List.rev !late)

let test_fanout_alternating_trees () =
  let e, topo, nodes, send, drain = fan_topo () in
  let s1 = nodes.(0) and s2 = nodes.(1) in
  let g1 = 1 and g2 = 2 in
  List.iter (fun i -> Netsim.Topology.join topo ~group:g1 nodes.(i)) [ 1; 3; 4; 6 ];
  List.iter (fun i -> Netsim.Topology.join topo ~group:g2 nodes.(i)) [ 0; 4; 5 ];
  (* Tag = 10 * round + index; (src, group) alternate packet by packet,
     so consecutive fan-outs at r never hit the same tree. *)
  let round k =
    List.iteri
      (fun i (src, group) -> send ~src ~group ((10 * k) + i))
      [ (s1, g1); (s2, g1); (s1, g2); (s2, g2); (s2, g1); (s1, g1) ];
    Netsim.Engine.run e
  in
  round 0;
  Netsim.Topology.leave topo ~group:g1 nodes.(4);
  Netsim.Topology.join topo ~group:g2 nodes.(6);
  round 1;
  check_log "deliveries"
    [ "s2<-0"; "b<-0"; "a<-0"; "c<-2"; "s1<-3"; "b<-1"; "a<-1"; "s2<-5"; "c<-3";
      "b<-2"; "a<-5"; "b<-3"; "a<-4"; "d<-0"; "b<-5"; "d<-1"; "b<-4"; "d<-5";
      "d<-4"; "s2<-10"; "a<-10"; "b<-12"; "c<-12"; "s1<-13"; "a<-11"; "s2<-15";
      "b<-13"; "c<-13"; "d<-10"; "a<-15"; "d<-11"; "a<-14"; "d<-12"; "d<-13";
      "d<-15"; "d<-14" ]
    (drain ())

(* -------------------------------------------------------------- Monitor *)

let test_monitor_accounting () =
  let e, topo, a, b = two_node_topo () in
  let mon = Netsim.Monitor.create e in
  Netsim.Monitor.watch_node mon b;
  let mk flow =
    Netsim.Packet.make ~flow ~size:1000 ~src:(Netsim.Node.id a)
      ~dst:(Netsim.Packet.Unicast (Netsim.Node.id b))
      ~created:0. (Netsim.Packet.Raw 0)
  in
  Netsim.Topology.inject topo (mk 1);
  Netsim.Topology.inject topo (mk 1);
  Netsim.Topology.inject topo (mk 2);
  Netsim.Engine.run e;
  Alcotest.(check int) "flow 1 bytes" 2000 (Netsim.Monitor.bytes mon ~flow:1);
  Alcotest.(check int) "flow 2 bytes" 1000 (Netsim.Monitor.bytes mon ~flow:2);
  Alcotest.(check int) "flow 1 packets" 2 (Netsim.Monitor.packets mon ~flow:1);
  Alcotest.(check (list int)) "flows" [ 1; 2 ] (Netsim.Monitor.flows mon)

(* ----------------------------------------------------------- Properties *)

let prop_heap_sorted =
  QCheck.Test.make ~name:"heap pops in sorted order" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 200) (float_bound_exclusive 1000.))
    (fun times ->
      let h = new_heap () in
      List.iter (fun t -> ignore (Event_heap.add h ~time:t ignore)) times;
      let sorted = ref true and prev = ref neg_infinity in
      let pre () =
        if cell.Event_heap.cell_time < !prev then sorted := false;
        prev := cell.Event_heap.cell_time
      in
      while Event_heap.step h ~limit:infinity ~into:cell ~pre do
        ()
      done;
      !sorted)

let prop_droptail_never_exceeds =
  QCheck.Test.make ~name:"droptail length never exceeds capacity" ~count:100
    QCheck.(pair (int_range 1 20) (list_of_size Gen.(int_range 0 100) bool))
    (fun (cap, ops) ->
      let q = Netsim.Queue_disc.droptail ~capacity_pkts:cap in
      let mk () =
        Netsim.Packet.make ~flow:0 ~size:10 ~src:0 ~dst:(Netsim.Packet.Unicast 1)
          ~created:0. (Netsim.Packet.Raw 0)
      in
      List.for_all
        (fun enq ->
          if enq then ignore (Netsim.Queue_disc.enqueue q (mk ()))
          else ignore (Netsim.Queue_disc.dequeue q);
          Netsim.Queue_disc.length q <= cap)
        ops)

let test_link_down_up () =
  let e, topo, a, b = two_node_topo () in
  let got = ref 0 in
  Netsim.Node.attach b (fun _ -> incr got);
  let link = Option.get (Netsim.Topology.link_between topo a b) in
  let send () =
    Netsim.Topology.inject topo
      (Netsim.Packet.make ~flow:1 ~size:100 ~src:(Netsim.Node.id a)
         ~dst:(Netsim.Packet.Unicast (Netsim.Node.id b))
         ~created:(Netsim.Engine.now e) (Netsim.Packet.Raw 0))
  in
  send ();
  Netsim.Engine.run e;
  Alcotest.(check int) "delivered while up" 1 !got;
  Netsim.Link.set_up link false;
  Alcotest.(check bool) "reports down" false (Netsim.Link.is_up link);
  send ();
  Netsim.Engine.run e;
  Alcotest.(check int) "blackholed while down" 1 !got;
  Alcotest.(check bool) "counted as lost" true (Netsim.Link.packets_lost link >= 1);
  Netsim.Link.set_up link true;
  send ();
  Netsim.Engine.run e;
  Alcotest.(check int) "resumes after up" 2 !got

let test_droptail_bytes () =
  let q = Netsim.Queue_disc.droptail_bytes ~capacity_bytes:2500 in
  let mk size =
    Netsim.Packet.make ~flow:0 ~size ~src:0 ~dst:(Netsim.Packet.Unicast 1)
      ~created:0. (Netsim.Packet.Raw 0)
  in
  Alcotest.(check bool) "1000 fits" true (Netsim.Queue_disc.enqueue q (mk 1000));
  Alcotest.(check bool) "another 1000 fits" true (Netsim.Queue_disc.enqueue q (mk 1000));
  Alcotest.(check bool) "third 1000 rejected" false (Netsim.Queue_disc.enqueue q (mk 1000));
  Alcotest.(check bool) "small packet still fits" true (Netsim.Queue_disc.enqueue q (mk 400));
  Alcotest.(check int) "byte accounting" 2400 (Netsim.Queue_disc.byte_length q)

(* ------------------------------------------------------------- Topo_gen *)

let test_topo_gen_chain () =
  let e = Netsim.Engine.create () in
  let topo = Netsim.Topology.create e in
  let nodes = Netsim.Topo_gen.chain topo ~n:5 () in
  Alcotest.(check int) "5 nodes" 5 (Array.length nodes);
  Alcotest.(check (option int)) "end-to-end hops" (Some 4)
    (Netsim.Topology.hop_count topo ~src:nodes.(0) ~dst:nodes.(4))

let test_topo_gen_star () =
  let e = Netsim.Engine.create () in
  let topo = Netsim.Topology.create e in
  let hub, leaves = Netsim.Topo_gen.star topo ~leaves:6 () in
  Alcotest.(check int) "6 leaves" 6 (Array.length leaves);
  Array.iter
    (fun leaf ->
      Alcotest.(check (option int)) "leaf adjacent to hub" (Some 1)
        (Netsim.Topology.hop_count topo ~src:hub ~dst:leaf))
    leaves

let test_topo_gen_binary_tree () =
  let e = Netsim.Engine.create () in
  let topo = Netsim.Topology.create e in
  let root, leaves = Netsim.Topo_gen.binary_tree topo ~depth:3 () in
  Alcotest.(check int) "8 leaves" 8 (Array.length leaves);
  Array.iter
    (fun leaf ->
      Alcotest.(check (option int)) "leaf at depth 3" (Some 3)
        (Netsim.Topology.hop_count topo ~src:root ~dst:leaf))
    leaves

let test_topo_gen_random_tree_connected () =
  let e = Netsim.Engine.create () in
  let topo = Netsim.Topology.create e in
  let rng = Stats.Rng.create 9 in
  let nodes = Netsim.Topo_gen.random_tree topo rng ~n:40 ~max_children:3 () in
  (* A tree on n nodes: all reachable from the root. *)
  Array.iter
    (fun nd ->
      match Netsim.Topology.hop_count topo ~src:nodes.(0) ~dst:nd with
      | Some _ -> ()
      | None -> Alcotest.fail "node unreachable from root")
    nodes

let test_topo_gen_transit_stub_shape () =
  let e = Netsim.Engine.create () in
  let topo = Netsim.Topology.create e in
  let rng = Stats.Rng.create 10 in
  let ts =
    Netsim.Topo_gen.transit_stub topo rng ~transits:3 ~stubs_per_transit:2
      ~hosts_per_stub:4 ()
  in
  Alcotest.(check int) "transits" 3 (Array.length ts.Netsim.Topo_gen.transits);
  Alcotest.(check int) "stubs" 6 (Array.length ts.Netsim.Topo_gen.stubs);
  Alcotest.(check int) "hosts" 24 (Array.length ts.Netsim.Topo_gen.hosts);
  (* Any host can reach any other host. *)
  let a = ts.Netsim.Topo_gen.hosts.(0) in
  let b = ts.Netsim.Topo_gen.hosts.(23) in
  Alcotest.(check bool) "hosts mutually reachable" true
    (Netsim.Topology.hop_count topo ~src:a ~dst:b <> None)

(* -------------------------------------------------------- Monitor delay *)

let test_monitor_delays () =
  let e, topo, a, b = two_node_topo () in
  let mon = Netsim.Monitor.create e in
  Netsim.Monitor.watch_node mon b;
  let mk () =
    Netsim.Packet.make ~flow:3 ~size:1000 ~src:(Netsim.Node.id a)
      ~dst:(Netsim.Packet.Unicast (Netsim.Node.id b))
      ~created:(Netsim.Engine.now e) (Netsim.Packet.Raw 0)
  in
  Netsim.Topology.inject topo (mk ());
  Netsim.Engine.run e;
  let d = Netsim.Monitor.delays mon ~flow:3 in
  Alcotest.(check int) "one delay sample" 1 (Array.length d);
  (* tx 8 ms + prop 10 ms *)
  check_float "delay = tx + prop" 0.018 d.(0);
  match Netsim.Monitor.delay_summary mon ~flow:3 with
  | Some s -> check_float "summary mean" 0.018 s.Stats.Descriptive.mean
  | None -> Alcotest.fail "expected a summary"

let test_monitor_delay_ring_bound () =
  let e, topo, a, b = two_node_topo ~bandwidth_bps:1e9 () in
  let mon = Netsim.Monitor.create e in
  Netsim.Monitor.watch_node mon b;
  for i = 1 to 600 do
    ignore
      (Netsim.Engine.at e
         ~time:(0.001 *. float_of_int i)
         (fun () ->
           let p =
             Netsim.Packet.make ~flow:3 ~size:100 ~src:(Netsim.Node.id a)
               ~dst:(Netsim.Packet.Unicast (Netsim.Node.id b))
               ~created:(Netsim.Engine.now e) (Netsim.Packet.Raw 0)
           in
           Netsim.Topology.inject topo p))
  done;
  Netsim.Engine.run e;
  Alcotest.(check int) "packets counted" 600 (Netsim.Monitor.packets mon ~flow:3);
  Alcotest.(check bool) "delays retained" true
    (Array.length (Netsim.Monitor.delays mon ~flow:3) = 600)

(* Random connected graphs: build n nodes, a random spanning tree plus
   extra random edges, then check routing and multicast invariants. *)
let random_topology rng ~n ~extra =
  let e = Netsim.Engine.create ~seed:(Stats.Rng.int rng 1_000_000) () in
  let topo = Netsim.Topology.create e in
  let nodes = Netsim.Topology.add_nodes topo n in
  for i = 1 to n - 1 do
    let parent = Stats.Rng.int rng i in
    ignore
      (Netsim.Topology.connect topo ~bandwidth_bps:1e8 ~delay_s:0.001
         nodes.(parent) nodes.(i))
  done;
  for _ = 1 to extra do
    let a = Stats.Rng.int rng n and b = Stats.Rng.int rng n in
    if a <> b && Netsim.Topology.link_between topo nodes.(a) nodes.(b) = None
    then
      ignore
        (Netsim.Topology.connect topo ~bandwidth_bps:1e8 ~delay_s:0.001
           nodes.(a) nodes.(b))
  done;
  (e, topo, nodes)

let prop_random_graph_all_reachable =
  QCheck.Test.make ~name:"random connected graph: every pair routable" ~count:40
    QCheck.(pair (int_range 2 25) (int_range 0 15))
    (fun (n, extra) ->
      let rng = Stats.Rng.create ((n * 1000) + extra) in
      let _, topo, nodes = random_topology rng ~n ~extra in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          match Netsim.Topology.hop_count topo ~src:nodes.(i) ~dst:nodes.(j) with
          | Some h -> if (i = j) <> (h = 0) then ok := false
          | None -> ok := false
        done
      done;
      !ok)

let prop_random_graph_unicast_delivery =
  QCheck.Test.make ~name:"random graph: unicast packet arrives exactly once"
    ~count:40
    QCheck.(triple (int_range 2 20) (int_range 0 10) (int_range 0 1_000_000))
    (fun (n, extra, seed) ->
      let rng = Stats.Rng.create seed in
      let e, topo, nodes = random_topology rng ~n ~extra in
      let src = Stats.Rng.int rng n in
      let dst = (src + 1 + Stats.Rng.int rng (n - 1)) mod n in
      let count = ref 0 in
      Netsim.Node.attach nodes.(dst) (fun _ -> incr count);
      let p =
        Netsim.Packet.make ~flow:1 ~size:100 ~src:(Netsim.Node.id nodes.(src))
          ~dst:(Netsim.Packet.Unicast (Netsim.Node.id nodes.(dst)))
          ~created:0. (Netsim.Packet.Raw 0)
      in
      Netsim.Topology.inject topo p;
      Netsim.Engine.run e;
      (src = dst && !count = 0) || !count = 1)

let prop_random_graph_multicast_exactly_once =
  QCheck.Test.make
    ~name:"random graph: multicast reaches every member exactly once" ~count:40
    QCheck.(triple (int_range 3 20) (int_range 0 10) (int_range 0 1_000_000))
    (fun (n, extra, seed) ->
      let rng = Stats.Rng.create seed in
      let e, topo, nodes = random_topology rng ~n ~extra in
      let src = Stats.Rng.int rng n in
      let counts = Array.make n 0 in
      let members =
        List.filter (fun i -> i <> src && Stats.Rng.bool rng) (List.init n Fun.id)
      in
      List.iter
        (fun i ->
          Netsim.Topology.join topo ~group:9 nodes.(i);
          Netsim.Node.attach nodes.(i) (fun _ -> counts.(i) <- counts.(i) + 1))
        members;
      let p =
        Netsim.Packet.make ~flow:1 ~size:100 ~src:(Netsim.Node.id nodes.(src))
          ~dst:(Netsim.Packet.Multicast 9) ~created:0. (Netsim.Packet.Raw 0)
      in
      Netsim.Topology.inject topo p;
      Netsim.Engine.run e;
      List.for_all (fun i -> counts.(i) = 1) members
      && Array.for_all (fun c -> c <= 1) counts)

(* --------------------------------------------- Packet-pool lifecycle *)

(* (flow, size, src, dst) for a random packet; size must be positive. *)
let packet_fields =
  QCheck.(quad (int_range 0 1000) (int_range 1 9000) small_nat (pair bool small_nat))

let mk_dst (mc, n) =
  if mc then Netsim.Packet.Multicast n else Netsim.Packet.Unicast n

let prop_pool_recycle_no_stale =
  QCheck.Test.make ~name:"recycled arena slot is fully re-initialized" ~count:200
    QCheck.(pair packet_fields packet_fields)
    (fun (fa, fb) ->
      let pl = Netsim.Packet.Pool.domain () in
      QCheck.assume (Netsim.Packet.Pool.free pl > 0);
      let alloc (flow, size, src, d) tag =
        Netsim.Packet.alloc ~flow ~size ~src ~dst:(mk_dst d)
          ~created:(float_of_int tag) (Netsim.Packet.Raw tag)
      in
      let a = alloc fa 1 in
      let uid_a = a.Netsim.Packet.uid in
      Netsim.Packet.set_hops a 5;
      Netsim.Packet.release a;
      let b = alloc fb 2 in
      let flow, size, src, d = fb in
      let ok =
        (* LIFO freelist: the released record itself is recycled... *)
        b == a
        (* ...and nothing of its previous life survives. *)
        && b.Netsim.Packet.uid <> uid_a
        && b.Netsim.Packet.flow = flow
        && b.Netsim.Packet.size = size
        && b.Netsim.Packet.src = src
        && b.Netsim.Packet.dst = mk_dst d
        && b.Netsim.Packet.created = 2.
        && b.Netsim.Packet.hops = 0
        && b.Netsim.Packet.payload = Netsim.Packet.Raw 2
        && Netsim.Packet.is_live b
      in
      Netsim.Packet.release b;
      ok)

let prop_pool_exhaustion_falls_back =
  QCheck.Test.make ~name:"arena exhaustion falls back to heap records" ~count:20
    QCheck.(int_range 1 50)
    (fun extra ->
      let pl = Netsim.Packet.Pool.domain () in
      let alloc tag =
        Netsim.Packet.alloc ~flow:7 ~size:100 ~src:1
          ~dst:(Netsim.Packet.Unicast 2) ~created:0. (Netsim.Packet.Raw tag)
      in
      let drained = ref [] in
      Fun.protect
        ~finally:(fun () -> List.iter Netsim.Packet.release !drained)
        (fun () ->
          while Netsim.Packet.Pool.free pl > 0 do
            drained := alloc 0 :: !drained
          done;
          let before = Netsim.Packet.Pool.exhausted pl in
          let fallbacks = List.init extra alloc in
          let after = Netsim.Packet.Pool.exhausted pl in
          after - before = extra
          && List.for_all
               (fun p ->
                 (not p.Netsim.Packet.pooled)
                 && Netsim.Packet.is_live p
                 && p.Netsim.Packet.flow = 7
                 &&
                 (* release on a heap fallback is a no-op: the record
                    stays live and never enters the arena *)
                 (Netsim.Packet.release p;
                  Netsim.Packet.is_live p && Netsim.Packet.Pool.free pl = 0))
               fallbacks))

let prop_pool_uaf_guard_fires =
  QCheck.Test.make ~name:"guard trips on a released arena packet" ~count:100
    packet_fields
    (fun (flow, size, src, d) ->
      let pl = Netsim.Packet.Pool.domain () in
      QCheck.assume (Netsim.Packet.Pool.free pl > 0);
      let p =
        Netsim.Packet.alloc ~flow ~size ~src ~dst:(mk_dst d) ~created:0.
          (Netsim.Packet.Raw 0)
      in
      Netsim.Packet.guard "live" p;
      (* a live packet passes *)
      Netsim.Packet.release p;
      (not (Netsim.Packet.is_live p))
      &&
      match Netsim.Packet.guard "released" p with
      | () -> false
      | exception Netsim.Packet.Use_after_free _ -> true)

let test_pool_reclaim () =
  let pl = Netsim.Packet.Pool.domain () in
  let cap = Netsim.Packet.Pool.capacity pl in
  let alloc flow i =
    Netsim.Packet.alloc ~flow ~size:100 ~src:0 ~dst:(Netsim.Packet.Unicast 1)
      ~created:0. (Netsim.Packet.Raw i)
  in
  Netsim.Packet.Pool.reclaim pl;
  (* Five records are dropped without release, as by an engine whose
     run ended with packets in flight. *)
  let held = List.init 5 (alloc 1) in
  Alcotest.(check int) "five held" (cap - 5) (Netsim.Packet.Pool.free pl);
  let w0 = Gc.minor_words () in
  Netsim.Packet.Pool.reclaim pl;
  let w1 = Gc.minor_words () in
  Alcotest.(check (float 0.)) "allocation-free" 0. (w1 -. w0);
  Alcotest.(check int) "arena full again" cap (Netsim.Packet.Pool.free pl);
  Alcotest.(check bool) "held records are free, not live" true
    (List.for_all (fun p -> not (Netsim.Packet.is_live p)) held);
  (* Every slot is a distinct arena record: drawing all of them takes
     no heap fallback and never hands out one record twice (a repeat
     would carry the later index). *)
  let before = Netsim.Packet.Pool.exhausted pl in
  let drawn = List.init cap (alloc 2) in
  List.iteri (fun i p -> Netsim.Packet.set_hops p i) drawn;
  Alcotest.(check int) "no fallback" before (Netsim.Packet.Pool.exhausted pl);
  Alcotest.(check bool) "all pooled" true (List.for_all (fun p -> p.Netsim.Packet.pooled) drawn);
  Alcotest.(check bool) "distinct records" true
    (List.for_all Fun.id (List.mapi (fun i p -> p.Netsim.Packet.hops = i) drawn));
  List.iter Netsim.Packet.release drawn

let test_pool_debug_double_release () =
  let pl = Netsim.Packet.Pool.domain () in
  let was = Netsim.Packet.Pool.debug pl in
  Fun.protect
    ~finally:(fun () -> Netsim.Packet.Pool.set_debug pl was)
    (fun () ->
      Netsim.Packet.Pool.set_debug pl true;
      let p =
        Netsim.Packet.alloc ~flow:1 ~size:100 ~src:0
          ~dst:(Netsim.Packet.Unicast 1) ~created:0. (Netsim.Packet.Raw 0)
      in
      Alcotest.(check bool) "drawn from the arena" true p.Netsim.Packet.pooled;
      let uid = p.Netsim.Packet.uid in
      Netsim.Packet.release p;
      (* Debug mode poisons the scalars so a stale reader sees values no
         real packet carries. *)
      Alcotest.(check int) "size poisoned" min_int p.Netsim.Packet.size;
      Alcotest.(check int) "flow poisoned" min_int p.Netsim.Packet.flow;
      Alcotest.(check int) "hops poisoned" min_int p.Netsim.Packet.hops;
      Alcotest.check_raises "double release raises"
        (Netsim.Packet.Use_after_free
           (Printf.sprintf "double release of packet #%d" uid))
        (fun () -> Netsim.Packet.release p))

let () =
  Alcotest.run "netsim"
    [
      ( "event_heap",
        [
          Alcotest.test_case "time order" `Quick test_heap_order;
          Alcotest.test_case "FIFO on ties" `Quick test_heap_fifo_ties;
          Alcotest.test_case "cancel" `Quick test_heap_cancel;
          Alcotest.test_case "cancel idempotent" `Quick test_heap_cancel_idempotent;
          Alcotest.test_case "growth + order" `Quick test_heap_grows;
          Alcotest.test_case "allocation-free fast path" `Quick test_heap_fast_path;
          Alcotest.test_case "stale handle" `Quick test_heap_stale_handle;
          Alcotest.test_case "peek_time skips cancelled" `Quick
            test_heap_peek_time_skips_cancelled;
        ] );
      ( "engine",
        [
          Alcotest.test_case "time advances" `Quick test_engine_time_advances;
          Alcotest.test_case "run until" `Quick test_engine_until;
          Alcotest.test_case "NaN until rejected" `Quick test_engine_nan_until;
          Alcotest.test_case "stop" `Quick test_engine_stop;
          Alcotest.test_case "rejects past" `Quick test_engine_rejects_past;
          Alcotest.test_case "nested schedule" `Quick test_engine_nested_schedule;
          Alcotest.test_case "tie: cancel suppresses sibling" `Quick
            test_engine_tie_cancel;
          Alcotest.test_case "tie: stop leaves siblings pending" `Quick
            test_engine_tie_stop;
          Alcotest.test_case "tie: exception keeps siblings" `Quick
            test_engine_tie_exception;
          Alcotest.test_case "tie: watchdog raise keeps siblings" `Quick
            test_engine_tie_watchdog;
        ] );
      ( "queue_disc",
        [
          Alcotest.test_case "droptail FIFO" `Quick test_droptail_fifo;
          Alcotest.test_case "droptail capacity" `Quick test_droptail_capacity;
          Alcotest.test_case "byte accounting" `Quick test_droptail_byte_accounting;
          Alcotest.test_case "RED early drops" `Quick test_red_drops_under_sustained_load;
          Alcotest.test_case "RED accepts when empty" `Quick test_red_accepts_when_empty;
          Alcotest.test_case "byte-mode droptail" `Quick test_droptail_bytes;
        ] );
      ( "loss_model",
        [
          Alcotest.test_case "none" `Quick test_loss_none;
          Alcotest.test_case "bernoulli rate" `Slow test_loss_bernoulli_rate;
          Alcotest.test_case "gilbert-elliott" `Slow test_loss_gilbert_bursty;
          Alcotest.test_case "gilbert empirical = hint" `Slow
            test_loss_gilbert_empirical_matches_hint;
          Alcotest.test_case "gilbert chain transitions" `Quick
            test_loss_gilbert_chain_transitions;
          Alcotest.test_case "gilbert degenerate hints" `Quick
            test_loss_gilbert_hint_degenerate;
          Alcotest.test_case "describe" `Quick test_loss_describe;
          Alcotest.test_case "dynamic switch" `Quick test_loss_dynamic_switch;
        ] );
      ( "link",
        [
          Alcotest.test_case "delivery latency" `Quick test_link_delivery_latency;
          Alcotest.test_case "serialization" `Quick test_link_serialization;
          Alcotest.test_case "stochastic loss" `Quick test_link_loss_applied;
          Alcotest.test_case "down/up" `Quick test_link_down_up;
          Alcotest.test_case "TTL drop counted" `Quick test_link_ttl_drop_counted;
        ] );
      ( "topology",
        [
          Alcotest.test_case "unicast multihop" `Quick test_unicast_multihop;
          Alcotest.test_case "router transparency" `Quick test_no_delivery_at_intermediate;
          Alcotest.test_case "path/hops" `Quick test_path_and_hops;
          Alcotest.test_case "multicast fanout" `Quick test_multicast_fanout;
          Alcotest.test_case "shared-link single copy" `Quick
            test_multicast_shared_link_single_copy;
          Alcotest.test_case "join/leave" `Quick test_multicast_join_leave;
          Alcotest.test_case "membership api" `Quick test_multicast_membership_api;
          Alcotest.test_case "fan-out: leave in handler" `Quick test_fanout_leave_in_handler;
          Alcotest.test_case "fan-out: node added after cache" `Quick
            test_fanout_node_added_after_cache;
          Alcotest.test_case "fan-out: alternating trees" `Quick test_fanout_alternating_trees;
        ] );
      ( "monitor",
        [
          Alcotest.test_case "per-flow accounting" `Quick test_monitor_accounting;
          Alcotest.test_case "delays" `Quick test_monitor_delays;
          Alcotest.test_case "delay ring bound" `Quick test_monitor_delay_ring_bound;
        ] );
      ( "topo_gen",
        [
          Alcotest.test_case "chain" `Quick test_topo_gen_chain;
          Alcotest.test_case "star" `Quick test_topo_gen_star;
          Alcotest.test_case "binary tree" `Quick test_topo_gen_binary_tree;
          Alcotest.test_case "random tree connected" `Quick test_topo_gen_random_tree_connected;
          Alcotest.test_case "transit-stub shape" `Quick test_topo_gen_transit_stub_shape;
        ] );
      ( "pool",
        Alcotest.test_case "debug poison + double release" `Quick
          test_pool_debug_double_release
        :: Alcotest.test_case "reclaim takes back held records" `Quick test_pool_reclaim
        :: List.map QCheck_alcotest.to_alcotest
             [
               prop_pool_recycle_no_stale; prop_pool_exhaustion_falls_back;
               prop_pool_uaf_guard_fires;
             ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_heap_sorted; prop_heap_model; prop_droptail_never_exceeds;
            prop_random_graph_all_reachable; prop_random_graph_unicast_delivery;
            prop_random_graph_multicast_exactly_once;
          ] );
    ]
