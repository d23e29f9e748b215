(* Unit tests for the Netsim substrate: event heap, engine, queues, links,
   topology routing and multicast trees. *)

let check_float = Alcotest.(check (float 1e-9))

(* ----------------------------------------------------------- Event_heap *)

(* The shared scheduler core, with [int] messages ([-1] is the dummy). *)
let new_heap () = Event_heap.create ~dummy:(-1)

let cell = { Event_heap.cell_time = 0. }

(* Absolute-time schedules, the form most of these tests want. *)
let add h ~time fn = Event_heap.add h ~base:Event_heap.time_zero ~offset:time fn

let add_unit h ~time fn = Event_heap.add_unit h ~base:Event_heap.time_zero ~offset:time fn

let add_msg h ~time f x n = Event_heap.add_msg h ~base:Event_heap.time_zero ~offset:time f x n

(* Minor words per unit of [run n], taken as the difference between
   [run (2 n)] and [run n], so a run's fixed cost (and the measurement's
   own boxed reads) cancels: an allocation-free per-unit path reads
   exactly 0. *)
let marginal_words run =
  let n = 10_000 in
  let words k =
    let before = Gc.minor_words () in
    run k;
    Gc.minor_words () -. before
  in
  (words (2 * n) -. words n) /. float_of_int n

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
    ignore (add h ~time (fun () -> fired := tag :: !fired))
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
    ignore (add h ~time:1.0 (fun () -> fired := i :: !fired))
  done;
  ignore (drain h);
  Alcotest.(check (list int)) "insertion order on ties" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.rev !fired)

let test_heap_cancel () =
  let h = new_heap () in
  let fired = ref 0 in
  let keep = add h ~time:1.0 (fun () -> incr fired) in
  let drop = add h ~time:2.0 (fun () -> incr fired) in
  ignore keep;
  Event_heap.cancel h drop;
  Alcotest.(check int) "live size after cancel" 1 (Event_heap.size h);
  Alcotest.(check int) "one step" 1 (drain h);
  Alcotest.(check int) "only live event fired" 1 !fired

let test_heap_cancel_idempotent () =
  let h = new_heap () in
  let e = add h ~time:1.0 ignore in
  Event_heap.cancel h e;
  Event_heap.cancel h e;
  Alcotest.(check int) "size zero" 0 (Event_heap.size h)

let test_heap_grows () =
  let h = new_heap () in
  for i = 0 to 999 do
    ignore (add h ~time:(float_of_int (999 - i)) ignore)
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
  let add time tag = ignore (add h ~time (fun () -> log := tag :: !log)) in
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
     Each entry is due a fixed delay after the clock cell, summed by the
     heap, so nothing is boxed: 0 words per event (2 while the caller
     summed and boxed the deadline). *)
  let h = Event_heap.create ~dummy:Netsim.Packet.dummy in
  let cb () = () and msg (_ : Netsim.Packet.t) (_ : int) = () in
  let p =
    Netsim.Packet.make ~flow:1 ~size:100 ~src:0 ~dst:(Netsim.Packet.Unicast 1)
      ~created:0. (Netsim.Packet.Raw 0)
  in
  for i = 0 to 999 do
    add_unit h ~time:(float_of_int i) cb
  done;
  let per_event schedule =
    marginal_words (fun n ->
        for _ = 1 to n do
          schedule ();
          ignore (Event_heap.step h ~limit:infinity ~into:cell ~pre:ignore)
        done)
  in
  let check_words what w =
    if w <> 0. then Alcotest.failf "%s+step allocates %.3f words per event (max 0)" what w
  in
  check_words "add_msg"
    (per_event (fun () -> Event_heap.add_msg h ~base:cell ~offset:1000. msg p 0));
  check_words "add_unit"
    (per_event (fun () -> Event_heap.add_unit h ~base:cell ~offset:1000. cb));
  Alcotest.(check bool) "still well-formed" true (Event_heap.well_formed h);
  (* Tie runs: a burst at one deadline over a later backlog, every
     insert after the first joining the run, then a drain that pops
     each member in place.  Also 0 words per event. *)
  let h = Event_heap.create ~dummy:Netsim.Packet.dummy in
  let clock = { Event_heap.cell_time = 0. } in
  for i = 0 to 999 do
    add_unit h ~time:(1e9 +. float_of_int i) cb
  done;
  let per_run_event schedule =
    let burst n =
      for _ = 1 to n do
        schedule ()
      done;
      while Event_heap.step h ~limit:1e8 ~into:clock ~pre:ignore do
        ()
      done
    in
    (* grow the slot arrays before measuring *)
    burst 20_000;
    marginal_words burst
  in
  check_words "add_msg in a run"
    (per_run_event (fun () -> Event_heap.add_msg h ~base:clock ~offset:1. msg p 0));
  check_words "add_unit in a run"
    (per_run_event (fun () -> Event_heap.add_unit h ~base:clock ~offset:1. cb));
  Alcotest.(check int) "backlog untouched" 1000 (Event_heap.size h);
  Alcotest.(check bool) "well-formed after the runs" true (Event_heap.well_formed h)

(* The engine's fire-and-forget schedules end to end: a chain of events,
   each scheduling the next through [Engine.after_pkt] or
   [Engine.after_unit] (a packet arrival, a transmission end) and fired
   by [Engine.run]'s heap step, over a backlog of pending events.
   Pinned at 0 words per event; the heap-level check allowed 2 while
   the engine summed [now + delay] and boxed it. *)
let test_engine_schedule_words () =
  let e = Netsim.Engine.create () in
  for i = 1 to 1000 do
    Netsim.Engine.after_unit e ~delay:(1e6 +. float_of_int i) ignore
  done;
  let p =
    Netsim.Packet.make ~flow:1 ~size:100 ~src:0 ~dst:(Netsim.Packet.Unicast 1)
      ~created:0. (Netsim.Packet.Raw 0)
  in
  let remaining = ref 0 in
  let rec on_pkt (q : Netsim.Packet.t) (_ : int) =
    if !remaining = 0 then Netsim.Engine.stop e
    else begin
      decr remaining;
      Netsim.Engine.after_pkt e ~delay:1e-3 on_pkt q
    end
  in
  let rec on_unit () =
    if !remaining = 0 then Netsim.Engine.stop e
    else begin
      decr remaining;
      Netsim.Engine.after_unit e ~delay:1e-3 on_unit
    end
  in
  let per_event start =
    marginal_words (fun n ->
        remaining := n;
        start ();
        Netsim.Engine.run e)
  in
  let check what w =
    if w <> 0. then
      Alcotest.failf "Engine.%s + step allocates %.3f words per event (max 0)" what w
  in
  check "after_pkt" (per_event (fun () -> Netsim.Engine.after_pkt e ~delay:1e-3 on_pkt p));
  check "after_unit" (per_event (fun () -> Netsim.Engine.after_unit e ~delay:1e-3 on_unit))

(* A handle outlives its event: once the event fired (or was cancelled)
   its slot is reused, and the stale handle must not cancel the new
   occupant. *)
let test_heap_stale_handle () =
  let h = new_heap () in
  let fired = ref [] in
  let add time tag = add h ~time (fun () -> fired := tag :: !fired) in
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

(* A 512-entry tie run at t = 5 on top of a 1,000-entry backlog spread
   over [0, 10), one backlog entry also at exactly 5 (inserted first, so
   it fires first).  The first, a middle and the last member are
   cancelled; member 100 spawns a zero-delay entry, which must fire
   after the whole run; its handle then names the slot the spawn took
   and must cancel nothing.  [size], [peek_time] and [well_formed] are
   checked against a sorted list after every step. *)
let test_heap_tie_run () =
  let h = new_heap () in
  let log = ref [] in
  let tag k () = log := k :: !log in
  let backlog_time i = float_of_int (i * 7919 mod 1000) /. 100. in
  for i = 0 to 999 do
    add_unit h ~time:(backlog_time i) (tag i)
  done;
  let spawned = ref false in
  let member k () =
    tag (1000 + k) ();
    if k = 100 then begin
      Event_heap.add_unit h ~base:cell ~offset:0. (tag 2000);
      spawned := true
    end
  in
  let handles = Array.init 512 (fun k -> add h ~time:5.0 (member k)) in
  let cancelled = [ 0; 255; 511 ] in
  List.iter (fun k -> Event_heap.cancel h handles.(k)) cancelled;
  (* Tags sort as seqs do: backlog, then run, then the spawn. *)
  let remaining =
    ref
      (List.sort compare
         ((5.0, 2000)
         :: List.init 1000 (fun i -> (backlog_time i, i))
         @ List.filter_map
             (fun k -> if List.mem k cancelled then None else Some (5.0, 1000 + k))
             (List.init 512 Fun.id)))
  in
  let check_state what =
    let pending = List.length !remaining - if !spawned then 0 else 1 in
    Alcotest.(check int) (what ^ ": size") pending (Event_heap.size h);
    Alcotest.(check (option (float 0.)))
      (what ^ ": peek_time")
      (match !remaining with (t, _) :: _ -> Some t | [] -> None)
      (Event_heap.peek_time h);
    if not (Event_heap.well_formed h) then Alcotest.failf "%s: not well-formed" what
  in
  check_state "built";
  let step limit = Event_heap.step h ~limit ~into:cell ~pre:ignore in
  let rec drain_to limit =
    match !remaining with
    | (t, k) :: rest when t <= limit ->
        let what = Printf.sprintf "fires #%d" k in
        Alcotest.(check bool) what true (step limit);
        Alcotest.(check int) (what ^ " in (time, seq) order") k (List.hd !log);
        Alcotest.(check (float 0.)) (what ^ ": clock") t cell.Event_heap.cell_time;
        remaining := rest;
        check_state what;
        if k = 1100 then begin
          Event_heap.cancel h handles.(100);
          check_state "stale handle to a fired member"
        end;
        drain_to limit
    | _ -> ()
  in
  let below = Float.pred 5.0 in
  drain_to below;
  let fired = List.length !log in
  Alcotest.(check bool) "nothing due just below the run" false (step below);
  Alcotest.(check int) "nothing fired" fired (List.length !log);
  check_state "below the run";
  drain_to infinity;
  Alcotest.(check bool) "drained" false (step infinity);
  Alcotest.(check int) "all fired" (1000 + 509 + 1) (List.length !log);
  (* A -0. deadline after a 0. one starts its own node: its pop writes
     -0. to the clock, not the run's 0. *)
  let h = new_heap () in
  let neg_zero = { Event_heap.cell_time = -0. } in
  Event_heap.add_unit h ~base:Event_heap.time_zero ~offset:0. ignore;
  Event_heap.add_unit h ~base:neg_zero ~offset:(-0.) ignore;
  Alcotest.(check bool) "well-formed" true (Event_heap.well_formed h);
  ignore (Event_heap.step h ~limit:0. ~into:cell ~pre:ignore);
  Alcotest.(check bool) "0. pops +0." false (Float.sign_bit cell.Event_heap.cell_time);
  ignore (Event_heap.step h ~limit:0. ~into:cell ~pre:ignore);
  Alcotest.(check bool) "-0. pops -0." true (Float.sign_bit cell.Event_heap.cell_time);
  Alcotest.(check int) "drained" 0 (Event_heap.size h)

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
   common, and a burst (2-16 schedules in a row at one time) builds the
   heap's tie runs on purpose, with members that cancel, raise and
   spawn. *)
type heap_action = Quiet | Spawn of int * int | Cancel_id of int | Raise

type heap_op =
  | Op_add of int * heap_action
  | Op_add_unit of int * heap_action
  | Op_add_msg of int * bool (* raises *)
  | Op_cancel of int
  | Op_step of int option
  | Op_burst of heap_op list (* schedules, all at one time *)

let show_action = function
  | Quiet -> ""
  | Spawn (d, k) -> Printf.sprintf " spawn(+%d,%d)" d k
  | Cancel_id j -> Printf.sprintf " cancel(#%d)" j
  | Raise -> " raise"

let rec show_heap_op = function
  | Op_add (t, a) -> Printf.sprintf "add %d%s" t (show_action a)
  | Op_add_unit (t, a) -> Printf.sprintf "add_unit %d%s" t (show_action a)
  | Op_add_msg (t, r) -> Printf.sprintf "add_msg %d%s" t (if r then " raise" else "")
  | Op_cancel k -> Printf.sprintf "cancel #%d" k
  | Op_step None -> "step inf"
  | Op_step (Some l) -> Printf.sprintf "step %d" l
  | Op_burst ops -> "burst [" ^ String.concat ", " (List.map show_heap_op ops) ^ "]"

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
    let member =
      frequency
        [
          (3, map (fun a t -> Op_add (t, a)) action);
          (2, map (fun a t -> Op_add_unit (t, a)) action);
          (2, map (fun r t -> Op_add_msg (t, r = 0)) (int_bound 5));
        ]
    in
    frequency
      [
        (3, map2 (fun t a -> Op_add (t, a)) time action);
        (2, map2 (fun t a -> Op_add_unit (t, a)) time action);
        (2, map2 (fun t r -> Op_add_msg (t, r = 0)) time (int_bound 5));
        (2, map (fun k -> Op_cancel k) (int_bound 60));
        (3, map (fun l -> Op_step l) (opt ~ratio:0.8 time));
        ( 1,
          map2
            (fun t ms -> Op_burst (List.map (fun m -> m t) ms))
            time
            (list_size (int_range 2 16) member) );
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
    if handle then Hashtbl.replace handles id (add h ~time fn)
    else add_unit h ~time fn
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
  let rec exec = function
    | Op_add (t, a) -> sched ~handle:true (float_of_int t) a
    | Op_add_unit (t, a) -> sched ~handle:false (float_of_int t) a
    | Op_add_msg (t, raises) ->
        let id = !next_id in
        incr next_id;
        add_msg h ~time:(float_of_int t) msg id (Bool.to_int raises)
    | Op_cancel j -> Option.iter (Event_heap.cancel h) (Hashtbl.find_opt handles j)
    | Op_step limit -> ignore (step (limit_of limit))
    | Op_burst ops -> List.iter exec ops
  in
  List.iter
    (fun op ->
      exec op;
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
  let rec exec = function
    | Op_add (t, a) -> add (float_of_int t) (Closure (a, true))
    | Op_add_unit (t, a) -> add (float_of_int t) (Closure (a, false))
    | Op_add_msg (t, raises) -> add (float_of_int t) (Msg raises)
    | Op_cancel j -> cancel j
    | Op_step limit -> ignore (step (limit_of limit))
    | Op_burst ops -> List.iter exec ops
  in
  List.iter
    (fun op ->
      exec op;
      trace := (-1, float_of_int (List.length !pending)) :: !trace)
    ops;
  let peek = match !pending with (time, _, _) :: _ -> Some time | [] -> None in
  while step infinity do
    ()
  done;
  (List.rev !trace, peek, true)

let prop_heap_model =
  QCheck.Test.make ~name:"event heap matches a sorted-list model" ~count:300 ~long_factor:20
    QCheck.(
      make
        ~print:(fun ops -> String.concat "; " (List.map show_heap_op ops))
        Gen.(list_size (int_range 0 200) heap_op_gen))
    (fun ops -> run_heap ops = run_model ops)

let test_heap_peek_time_skips_cancelled () =
  let h = new_heap () in
  let cancelled = add h ~time:1.0 ignore in
  ignore (add h ~time:2.0 ignore);
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
  Alcotest.(check int) "two fired" 2 (Netsim.Engine.events_processed e)

let test_engine_tie_stop () =
  let e = Netsim.Engine.create () in
  let log, _ = tied_triple e ~first:(fun () -> Netsim.Engine.stop e) in
  Netsim.Engine.run e;
  Alcotest.(check (list string)) "stopped after first" [ "a" ] (List.rev !log);
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
  Netsim.Engine.set_watchdog e ignore;
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
    if Netsim.Queue_disc.is_empty q then Alcotest.fail "queue drained early";
    match Netsim.Queue_disc.dequeue_exn q with
    | { Netsim.Packet.payload = Netsim.Packet.Raw i; _ } -> i
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
  Alcotest.(check int) "length" 2 (Netsim.Queue_disc.length q)

let test_red_drops_under_sustained_load () =
  let rng = Stats.Rng.create 1 in
  let q = Netsim.Queue_disc.red ~rng ~capacity_pkts:20 in
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
    if Netsim.Queue_disc.length q > 12 then ignore (Netsim.Queue_disc.dequeue_exn q)
  done;
  Alcotest.(check bool) "RED produced drops" true (!early_drops > 0)

let test_red_accepts_when_empty () =
  let rng = Stats.Rng.create 2 in
  let q = Netsim.Queue_disc.red ~rng ~capacity_pkts:20 in
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

(* ------------------------------------------------------ Link + Topology *)

let two_node_topo ?loss_ab ?(bandwidth_bps = 1e6) ?(delay_s = 0.01) () =
  let e = Netsim.Engine.create ~obs:(Obs.Sink.create ()) () in
  let topo = Netsim.Topology.create e in
  let a = Netsim.Topology.add_node topo in
  let b = Netsim.Topology.add_node topo in
  let _ =
    Netsim.Topology.connect topo ?loss_ab ~bandwidth_bps ~delay_s a b
  in
  (e, topo, a, b)

let test_link_ttl_drop_counted () =
  (* A packet that exceeded the TTL must be dropped *and* accounted:
     the ledger, the registry counter, and the trace all see it. *)
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
  Alcotest.(check int) "counted as a TTL drop" 1 (Netsim.Link.drops_ttl ab);
  Alcotest.(check int) "registry counter" 1
    (Obs.Metrics.sum_counters sink.Obs.Sink.metrics "netsim_link_drop_ttl_total");
  Alcotest.(check bool) "traced" true
    (String.starts_with ~prefix:"t " (Netsim.Trace.to_text tr))

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

(* One simulator hop end to end on a warmed link: [Link.send] on an idle
   line, the transmission end ([Engine.at_unit] from the link's cell),
   the loss draw, the arrival event and the far node's handler, which
   sends the packet again.
   Pinned at 0 words per hop; it read 4 while the transmission time
   crossed two module boundaries as a float, boxed twice. *)
let test_link_hop_words () =
  let e = Netsim.Engine.create () in
  let src = Netsim.Node.create ~id:0 and dst = Netsim.Node.create ~id:1 in
  let link =
    Netsim.Link.create e ~bandwidth_bps:1e6 ~delay_s:0.01
      ~queue:(Netsim.Queue_disc.droptail ~capacity_pkts:10)
      ~src ~dst ()
  in
  let p =
    Netsim.Packet.make ~flow:1 ~size:1000 ~src:0 ~dst:(Netsim.Packet.Unicast 1)
      ~created:0. (Netsim.Packet.Raw 0)
  in
  let remaining = ref 0 in
  Netsim.Node.attach dst (fun q ->
      if !remaining = 0 then Netsim.Engine.stop e
      else begin
        decr remaining;
        Netsim.Packet.set_hops q 0;
        Netsim.Link.send link q
      end);
  let w =
    marginal_words (fun n ->
        remaining := n;
        Netsim.Link.send link p;
        Netsim.Engine.run e)
  in
  if w <> 0. then Alcotest.failf "a link hop allocates %.3f words (max 0)" w;
  Alcotest.(check int) "every hop delivered" (Netsim.Link.packets_sent link)
    (Netsim.Link.packets_delivered link)

(* One routed round end to end on warmed links: [Topology.inject] looks
   up the next hop at the origin, the middle node's routing hook looks
   it up again and forwards, and the destination's handler injects the
   packet once more, so each round crosses a 3-node chain with two
   next-hop lookups and two link hops.  Pinned at 0 words per round; it
   read 14 (7 per lookup) while a lookup went through a per-destination
   [Hashtbl] and then hashed a (from, to) tuple to find the link. *)
let test_routed_hop_words () =
  let e = Netsim.Engine.create () in
  let topo = Netsim.Topology.create e in
  let a = Netsim.Topology.add_node topo in
  let b = Netsim.Topology.add_node topo in
  let c = Netsim.Topology.add_node topo in
  ignore (Netsim.Topology.connect topo ~bandwidth_bps:1e6 ~delay_s:0.01 a b);
  ignore (Netsim.Topology.connect topo ~bandwidth_bps:1e6 ~delay_s:0.01 b c);
  let p =
    Netsim.Packet.make ~flow:1 ~size:1000 ~src:(Netsim.Node.id a)
      ~dst:(Netsim.Packet.Unicast (Netsim.Node.id c))
      ~created:0. (Netsim.Packet.Raw 0)
  in
  let remaining = ref 0 and delivered = ref 0 in
  Netsim.Node.attach c (fun q ->
      incr delivered;
      if !remaining = 0 then Netsim.Engine.stop e
      else begin
        decr remaining;
        Netsim.Packet.set_hops q 0;
        Netsim.Topology.inject topo q
      end);
  let rounds n =
    remaining := n;
    Netsim.Topology.inject topo p;
    Netsim.Engine.run e
  in
  rounds 10;
  let w = marginal_words rounds in
  if w <> 0. then Alcotest.failf "a routed round allocates %.3f words (max 0)" w;
  Alcotest.(check int) "every send delivered" (11 + 10_001 + 20_001) !delivered

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
  Alcotest.(check int) "loss counted" 1 (Netsim.Link.drops_loss link)

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

let hop_count topo ~src ~dst =
  Option.map (fun p -> List.length p - 1) (Netsim.Topology.path topo ~src ~dst)

let test_path_and_hops () =
  let _, topo, nodes = chain_topo 4 in
  (match Netsim.Topology.path topo ~src:nodes.(0) ~dst:nodes.(3) with
  | Some p ->
      Alcotest.(check (list int)) "path node ids" [ 0; 1; 2; 3 ]
        (List.map Netsim.Node.id p)
  | None -> Alcotest.fail "expected a path");
  Alcotest.(check (option int)) "hops" (Some 3)
    (hop_count topo ~src:nodes.(0) ~dst:nodes.(3))

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
  let e, topo, hub, leaves = star_topo 3 in
  Netsim.Topology.join topo ~group:5 leaves.(0);
  Netsim.Topology.join topo ~group:5 leaves.(2);
  Netsim.Topology.join topo ~group:5 leaves.(2);
  let got = Array.make 3 0 in
  Array.iteri
    (fun i leaf -> Netsim.Node.attach leaf (fun _ -> got.(i) <- got.(i) + 1))
    leaves;
  Netsim.Topology.inject topo
    (Netsim.Packet.make ~flow:1 ~size:500 ~src:(Netsim.Node.id hub)
       ~dst:(Netsim.Packet.Multicast 5) ~created:0. (Netsim.Packet.Raw 0));
  Netsim.Engine.run e;
  Alcotest.(check (array int)) "members get one copy each (join idempotent)"
    [| 1; 0; 1 |] got

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
  let per_flow name =
    Obs.Metrics.labelled_values (Netsim.Engine.obs e).Obs.Sink.metrics name
    |> List.map (fun (labels, v) -> (List.assoc "flow" labels, v))
  in
  Alcotest.(check (list (pair string int))) "bytes per flow"
    [ ("1", 2000); ("2", 1000) ]
    (per_flow "netsim_monitor_bytes_total");
  Alcotest.(check (list (pair string int))) "packets per flow"
    [ ("1", 2); ("2", 1) ]
    (per_flow "netsim_monitor_packets_total")

(* ----------------------------------------------------------- Properties *)

let prop_heap_sorted =
  QCheck.Test.make ~name:"heap pops in sorted order" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 200) (float_bound_exclusive 1000.))
    (fun times ->
      let h = new_heap () in
      List.iter (fun t -> ignore (add h ~time:t ignore)) times;
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
          else if not (Netsim.Queue_disc.is_empty q) then
            ignore (Netsim.Queue_disc.dequeue_exn q);
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
  Alcotest.(check int) "counted as a down drop" 1 (Netsim.Link.drops_down link);
  Netsim.Link.set_up link true;
  send ();
  Netsim.Engine.run e;
  Alcotest.(check int) "resumes after up" 2 !got

(* ------------------------------------------------------------- Topo_gen *)

let test_topo_gen_star () =
  let e = Netsim.Engine.create () in
  let topo = Netsim.Topology.create e in
  let hub, leaves = Netsim.Topo_gen.star topo ~leaves:6 in
  Alcotest.(check int) "6 leaves" 6 (Array.length leaves);
  Array.iter
    (fun leaf ->
      Alcotest.(check (option int)) "leaf adjacent to hub" (Some 1)
        (hop_count topo ~src:hub ~dst:leaf))
    leaves

let test_topo_gen_random_tree_connected () =
  let e = Netsim.Engine.create () in
  let topo = Netsim.Topology.create e in
  let rng = Stats.Rng.create 9 in
  let nodes = Netsim.Topo_gen.random_tree topo rng ~n:40 in
  (* A tree on n nodes: all reachable from the root. *)
  Array.iter
    (fun nd ->
      match hop_count topo ~src:nodes.(0) ~dst:nd with
      | Some _ -> ()
      | None -> Alcotest.fail "node unreachable from root")
    nodes

let test_topo_gen_transit_stub_shape () =
  let e = Netsim.Engine.create () in
  let topo = Netsim.Topology.create e in
  let rng = Stats.Rng.create 10 in
  let ts =
    Netsim.Topo_gen.transit_stub topo rng ~stubs_per_transit:2 ~hosts_per_stub:4 ()
  in
  Alcotest.(check int) "transits" 4 (Array.length ts.Netsim.Topo_gen.transits);
  Alcotest.(check int) "stubs" 8 (Array.length ts.Netsim.Topo_gen.stubs);
  Alcotest.(check int) "hosts" 32 (Array.length ts.Netsim.Topo_gen.hosts);
  (* Any host can reach any other host. *)
  let a = ts.Netsim.Topo_gen.hosts.(0) in
  let b = ts.Netsim.Topo_gen.hosts.(31) in
  Alcotest.(check bool) "hosts mutually reachable" true
    (hop_count topo ~src:a ~dst:b <> None)

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
  match Netsim.Monitor.delay_summary mon ~flow:3 with
  | Some s ->
      Alcotest.(check int) "one delay sample" 1 s.Stats.Descriptive.n;
      (* tx 8 ms + prop 10 ms *)
      check_float "delay = tx + prop" 0.018 s.Stats.Descriptive.mean
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
  match Netsim.Monitor.delay_summary mon ~flow:3 with
  | Some s -> Alcotest.(check int) "delays retained" 600 s.Stats.Descriptive.n
  | None -> Alcotest.fail "expected a summary"

(* [Monitor.tap] once the flow's delay ring is at its 100,000-sample
   bound, with collection enabled: counters, the delay ring, the delay
   histogram and the byte series.  Pinned at 0 words per packet; it read
   4 while the delay and the clock crossed into [Obs.Metrics.Histogram]
   and [Stats.Timeseries.Counter] as floats. *)
let test_monitor_tap_words () =
  let e = Netsim.Engine.create ~obs:(Obs.Sink.create ()) () in
  let mon = Netsim.Monitor.create e in
  let p =
    Netsim.Packet.make ~flow:1 ~size:1000 ~src:0 ~dst:(Netsim.Packet.Unicast 1)
      ~created:0. (Netsim.Packet.Raw 0)
  in
  let taps n =
    for _ = 1 to n do
      Netsim.Monitor.tap mon p
    done
  in
  taps 100_000;
  let w = marginal_words taps in
  if w <> 0. then Alcotest.failf "Monitor.tap allocates %.3f words per packet (max 0)" w;
  Alcotest.(check int) "every tap counted" 130_000
    (Obs.Metrics.sum_counters (Netsim.Engine.obs e).Obs.Sink.metrics
       "netsim_monitor_packets_total")

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
          match hop_count topo ~src:nodes.(i) ~dst:nodes.(j) with
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
        List.filter (fun i -> i <> src && Stats.Rng.int rng 2 = 1) (List.init n Fun.id)
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

(* The per-destination next-hop tables are cached, so the one new way a
   route can go wrong is a stale table after the topology changes.  On a
   random connected graph, random steps add a node (linked to an
   existing one), add a link, or send a unicast packet and run it to
   delivery.  Every packet must reach its destination exactly once,
   after as many link hops as a breadth-first search of the test's own
   adjacency model gives, and [Topology.path] must agree. *)
let prop_routes_follow_topology_changes =
  QCheck.Test.make ~name:"random graph: routes follow add_node/connect" ~count:100
    QCheck.(triple (int_range 2 12) (int_range 0 6) (int_range 0 1_000_000))
    (fun (n, extra, seed) ->
      let rng = Stats.Rng.create seed in
      let e, topo, nodes = random_topology rng ~n ~extra in
      let nodes = ref nodes in
      let adj = Hashtbl.create 64 in
      let linked a b = Hashtbl.mem adj (a, b) in
      let record a b =
        Hashtbl.replace adj (a, b) ();
        Hashtbl.replace adj (b, a) ()
      in
      Array.iter
        (fun a ->
          Array.iter
            (fun b ->
              if Netsim.Topology.link_between topo a b <> None then
                record (Netsim.Node.id a) (Netsim.Node.id b))
            !nodes)
        !nodes;
      let model_hops src dst =
        let count = Array.length !nodes in
        let dist = Array.make count (-1) in
        let q = Queue.create () in
        dist.(src) <- 0;
        Queue.push src q;
        while not (Queue.is_empty q) do
          let u = Queue.pop q in
          for v = 0 to count - 1 do
            if dist.(v) < 0 && linked u v then begin
              dist.(v) <- dist.(u) + 1;
              Queue.push v q
            end
          done
        done;
        dist.(dst)
      in
      let arrivals = ref [] in
      let watch node =
        Netsim.Node.attach node (fun q ->
            arrivals := (Netsim.Node.id node, q.Netsim.Packet.hops) :: !arrivals)
      in
      Array.iter watch !nodes;
      let connect a b =
        ignore
          (Netsim.Topology.connect topo ~bandwidth_bps:1e8 ~delay_s:0.001
             !nodes.(a) !nodes.(b));
        record a b
      in
      let ok = ref true in
      for _ = 1 to 30 do
        let count = Array.length !nodes in
        match Stats.Rng.int rng 4 with
        | 0 ->
            let node = Netsim.Topology.add_node topo in
            watch node;
            nodes := Array.append !nodes [| node |];
            connect (Stats.Rng.int rng count) count
        | 1 ->
            let a = Stats.Rng.int rng count and b = Stats.Rng.int rng count in
            if a <> b && not (linked a b) then connect a b
        | _ ->
            let src = Stats.Rng.int rng count in
            let dst = (src + 1 + Stats.Rng.int rng (count - 1)) mod count in
            arrivals := [];
            Netsim.Topology.inject topo
              (Netsim.Packet.make ~flow:1 ~size:100 ~src
                 ~dst:(Netsim.Packet.Unicast dst) ~created:0.
                 (Netsim.Packet.Raw 0));
            Netsim.Engine.run e;
            let want = model_hops src dst in
            let hop_count =
              hop_count topo ~src:!nodes.(src) ~dst:!nodes.(dst)
            in
            if !arrivals <> [ (dst, want) ] || hop_count <> Some want then
              ok := false
      done;
      !ok)

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
      let arena = Netsim.Packet.arena () in
      let alloc (flow, size, src, d) tag =
        Netsim.Packet.alloc arena ~flow ~size ~src ~dst:(mk_dst d)
          ~created:(float_of_int tag) (Netsim.Packet.Raw tag)
      in
      let a = alloc fa 1 in
      let uid_a = a.Netsim.Packet.uid in
      Netsim.Packet.set_hops a 5;
      Netsim.Packet.release arena a;
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
        &&
        match Netsim.Packet.guard "recycled" b with
        | () -> true
        | exception Netsim.Packet.Use_after_free _ -> false
      in
      Netsim.Packet.release arena b;
      ok)

let prop_pool_uaf_guard_fires =
  QCheck.Test.make ~name:"guard trips on a released arena packet" ~count:100
    packet_fields
    (fun (flow, size, src, d) ->
      let arena = Netsim.Packet.arena () in
      let p =
        Netsim.Packet.alloc arena ~flow ~size ~src ~dst:(mk_dst d) ~created:0.
          (Netsim.Packet.Raw 0)
      in
      Netsim.Packet.guard "live" p;
      (* a live packet passes *)
      Netsim.Packet.release arena p;
      match Netsim.Packet.guard "released" p with
      | () -> false
      | exception Netsim.Packet.Use_after_free _ -> true)

let test_pool_double_release () =
  let arena = Netsim.Packet.arena () in
  let p =
    Netsim.Packet.alloc arena ~flow:1 ~size:100 ~src:0
      ~dst:(Netsim.Packet.Unicast 1) ~created:0. (Netsim.Packet.Raw 0)
  in
  Alcotest.(check bool) "drawn from the arena" true p.Netsim.Packet.pooled;
  let uid = p.Netsim.Packet.uid in
  Netsim.Packet.release arena p;
  Alcotest.check_raises "double release raises"
    (Netsim.Packet.Use_after_free
       (Printf.sprintf "double release of packet #%d" uid))
    (fun () -> Netsim.Packet.release arena p);
  (* A heap packet is the GC's: releasing it twice is a no-op. *)
  let h =
    Netsim.Packet.make ~flow:1 ~size:100 ~src:0 ~dst:(Netsim.Packet.Unicast 1)
      ~created:0. (Netsim.Packet.Raw 0)
  in
  Netsim.Packet.release arena h;
  Netsim.Packet.release arena h;
  (* and it stays live: the guard passes it. *)
  Netsim.Packet.guard "heap" h

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
          Alcotest.test_case "engine schedules allocation-free" `Quick
            test_engine_schedule_words;
          Alcotest.test_case "stale handle" `Quick test_heap_stale_handle;
          Alcotest.test_case "512-entry tie run" `Quick test_heap_tie_run;
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
          Alcotest.test_case "RED early drops" `Quick test_red_drops_under_sustained_load;
          Alcotest.test_case "RED accepts when empty" `Quick test_red_accepts_when_empty;
        ] );
      ( "loss_model",
        [
          Alcotest.test_case "none" `Quick test_loss_none;
          Alcotest.test_case "bernoulli rate" `Slow test_loss_bernoulli_rate;
        ] );
      ( "link",
        [
          Alcotest.test_case "delivery latency" `Quick test_link_delivery_latency;
          Alcotest.test_case "serialization" `Quick test_link_serialization;
          Alcotest.test_case "stochastic loss" `Quick test_link_loss_applied;
          Alcotest.test_case "down/up" `Quick test_link_down_up;
          Alcotest.test_case "TTL drop counted" `Quick test_link_ttl_drop_counted;
          Alcotest.test_case "hop allocation-free" `Quick test_link_hop_words;
          Alcotest.test_case "routed hop allocation-free" `Quick test_routed_hop_words;
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
          Alcotest.test_case "tap allocation-free" `Quick test_monitor_tap_words;
        ] );
      ( "topo_gen",
        [
          Alcotest.test_case "star" `Quick test_topo_gen_star;
          Alcotest.test_case "random tree connected" `Quick test_topo_gen_random_tree_connected;
          Alcotest.test_case "transit-stub shape" `Quick test_topo_gen_transit_stub_shape;
        ] );
      ( "pool",
        Alcotest.test_case "double release raises" `Quick test_pool_double_release
        :: List.map QCheck_alcotest.to_alcotest
             [ prop_pool_recycle_no_stale; prop_pool_uaf_guard_fires ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_heap_sorted; prop_heap_model; prop_droptail_never_exceeds;
            prop_random_graph_all_reachable; prop_random_graph_unicast_delivery;
            prop_random_graph_multicast_exactly_once;
            prop_routes_follow_topology_changes;
          ] );
    ]
