(* The clock is an {!Event_heap.time_cell}: an all-float record storing
   a raw double, so the per-event [now] update — written directly by
   [Event_heap.step] — is a plain store.  A [mutable float] in the
   mixed engine record would allocate a fresh boxed float on every one
   of the millions of events. *)
type link_counters = {
  m_tx : Obs.Metrics.Counter.t;
  m_deliver : Obs.Metrics.Counter.t;
  m_drop_queue : Obs.Metrics.Counter.t;
  m_drop_loss : Obs.Metrics.Counter.t;
  m_drop_down : Obs.Metrics.Counter.t;
  m_drop_ttl : Obs.Metrics.Counter.t;
}

type t = {
  heap : Packet.t Event_heap.t;
  arena : Packet.arena;  (* free records of this engine's packets *)
  clock : Event_heap.time_cell;
  rng : Stats.Rng.t;
  mutable stopped : bool;
  mutable processed : int;
  obs : Obs.Sink.t;
  ev_counter : Obs.Metrics.Counter.t;  (* engine-loop events processed *)
  mutable link_counters : link_counters option;  (* built by the first link *)
  (* Watchdog hook: [watchdog] runs every [wd_every] processed events.
     [wd_countdown] starts at [max_int] when no watchdog is installed,
     so the per-event cost without one is a single decrement that never
     reaches zero. *)
  mutable watchdog : (unit -> unit) option;
  mutable wd_every : int;
  mutable wd_countdown : int;
}

type handle = Event_heap.handle

let create ?(seed = 42) ?(obs = Obs.Sink.null) () =
  {
    heap = Event_heap.create ~dummy:Packet.dummy;
    arena = Packet.arena ();
    clock = { Event_heap.cell_time = 0. };
    rng = Stats.Rng.create seed;
    stopped = false;
    processed = 0;
    obs;
    ev_counter = Obs.Metrics.counter obs.Obs.Sink.metrics "netsim_engine_events_total";
    link_counters = None;
    watchdog = None;
    wd_every = max_int;
    wd_countdown = max_int;
  }

let obs t = t.obs

let arena t = t.arena

let link_counters t =
  match t.link_counters with
  | Some c -> c
  | None ->
      let metrics = t.obs.Obs.Sink.metrics in
      let c =
        {
          m_tx = Obs.Metrics.counter metrics "netsim_link_tx_total";
          m_deliver = Obs.Metrics.counter metrics "netsim_link_deliver_total";
          m_drop_queue = Obs.Metrics.counter metrics "netsim_link_drop_queue_total";
          m_drop_loss = Obs.Metrics.counter metrics "netsim_link_drop_loss_total";
          m_drop_down = Obs.Metrics.counter metrics "netsim_link_drop_down_total";
          m_drop_ttl = Obs.Metrics.counter metrics "netsim_link_drop_ttl_total";
        }
      in
      t.link_counters <- Some c;
      c

let set_watchdog t ?(every_events = 4096) f =
  if every_events < 1 then
    invalid_arg "Engine.set_watchdog: every_events must be >= 1";
  t.watchdog <- Some f;
  t.wd_every <- every_events;
  t.wd_countdown <- every_events

(* Called from the event loop after each processed event.  An exception
   from the watchdog callback (a cancellation or stall abort) propagates
   out of [run] to the caller owning this engine's task. *)
let wd_tick t =
  t.wd_countdown <- t.wd_countdown - 1;
  if t.wd_countdown = 0 then begin
    t.wd_countdown <- t.wd_every;
    match t.watchdog with Some f -> f () | None -> ()
  end

let now t = t.clock.Event_heap.cell_time

let time_cell t = t.clock

let rng t = t.rng

let split_rng t = Stats.Rng.split t.rng

let at t ~time callback =
  if time < t.clock.Event_heap.cell_time then
    invalid_arg
      (Printf.sprintf "Engine.at: time %g is in the past (now %g)" time t.clock.Event_heap.cell_time);
  Event_heap.add t.heap ~base:Event_heap.time_zero ~offset:time callback

let after t ~delay callback =
  if delay < 0. then invalid_arg "Engine.after: negative delay";
  Event_heap.add t.heap ~base:t.clock ~offset:delay callback

(* Fire-and-forget scheduling: no handle is allocated or returned, and
   the heap sums the deadline from the clock cell, so the
   engine-internal hot paths (link transmissions/arrivals) schedule
   without allocating (the payload goes into the heap's slot tables). *)
let after_unit t ~delay callback =
  if delay < 0. then invalid_arg "Engine.after_unit: negative delay";
  Event_heap.add_unit t.heap ~base:t.clock ~offset:delay callback

let after_pkt t ~delay pcb p =
  if delay < 0. then invalid_arg "Engine.after_pkt: negative delay";
  Event_heap.add_msg t.heap ~base:t.clock ~offset:delay pcb p 0

(* The due time is summed and checked here, so a caller that keeps its
   deadline in a cell (a link's transmission end) boxes nothing; the
   heap sums [base + offset] again, bit for bit the same. *)
let at_unit t ~base ~offset callback =
  let time = base.Event_heap.cell_time +. offset in
  if time < t.clock.Event_heap.cell_time then
    invalid_arg
      (Printf.sprintf "Engine.at_unit: time %g is in the past (now %g)" time
         t.clock.Event_heap.cell_time);
  Event_heap.add_unit t.heap ~base ~offset callback

let cancel t handle = Event_heap.cancel t.heap handle

let every t ~interval callback =
  if interval <= 0. then invalid_arg "Engine.every: interval must be positive";
  let rec tick time =
    Event_heap.add_unit t.heap ~base:Event_heap.time_zero ~offset:time (fun () ->
        callback ();
        tick (time +. interval))
  in
  tick (t.clock.Event_heap.cell_time +. interval)

(* Per-event accounting, run by [Event_heap.step] between the clock
   write and the callback. *)
let count t () =
  t.processed <- t.processed + 1;
  Obs.Metrics.Counter.inc t.ev_counter

let run ?until t =
  t.stopped <- false;
  (* [infinity] admits every event, including ones scheduled at
     [infinity]. *)
  let limit = match until with Some l -> l | None -> infinity in
  if Float.is_nan limit then invalid_arg "Engine.run: until is NaN";
  let pre = count t in
  (* One event per iteration in (time, seq) order.  [stop], or an
     exception from a callback or the watchdog, leaves every event not
     yet popped — including the rest of a timestamp tie — pending. *)
  while (not t.stopped) && Event_heap.step t.heap ~limit ~into:t.clock ~pre do
    wd_tick t
  done;
  match until with
  | Some limit when (not t.stopped) && t.clock.Event_heap.cell_time < limit -> t.clock.Event_heap.cell_time <- limit
  | _ -> ()

let stop t = t.stopped <- true

let events_processed t = t.processed

let queue_consistent t =
  Event_heap.well_formed t.heap
  &&
  match Event_heap.peek_time t.heap with
  | None -> true
  | Some next -> next >= t.clock.Event_heap.cell_time
