(* An {!Event_loop} over packets (the loop [Rt.Loop] runs too), plus the
   arena, link counters, events counter and watchdog hook (engine.mli). *)
type link_counters = {
  m_tx : Obs.Metrics.Counter.t;
  m_deliver : Obs.Metrics.Counter.t;
  m_drop_queue : Obs.Metrics.Counter.t;
  m_drop_loss : Obs.Metrics.Counter.t;
  m_drop_down : Obs.Metrics.Counter.t;
  m_drop_ttl : Obs.Metrics.Counter.t;
}

type t = {
  loop : Packet.t Event_loop.t;
  clock : Event_heap.time_cell; (* the loop's *)
  arena : Packet.arena;  (* free records of this engine's packets *)
  rng : Stats.Rng.t;
  obs : Obs.Sink.t;
  link_counters : link_counters Lazy.t;  (* registered by the first link *)
}

type handle = Event_heap.handle

let create ?(seed = 42) ?(obs = Obs.Sink.null) () =
  let loop = Event_loop.create ~dummy:Packet.dummy ~epoch:0. in
  let metrics = obs.Obs.Sink.metrics in
  let events = Obs.Metrics.counter metrics "netsim_engine_events_total" in
  Event_loop.on_entry loop (fun _ -> Obs.Metrics.Counter.inc events);
  {
    loop;
    clock = Event_loop.clock loop;
    arena = Packet.arena ();
    rng = Stats.Rng.create seed;
    obs;
    link_counters =
      lazy
        {
          m_tx = Obs.Metrics.counter metrics "netsim_link_tx_total";
          m_deliver = Obs.Metrics.counter metrics "netsim_link_deliver_total";
          m_drop_queue = Obs.Metrics.counter metrics "netsim_link_drop_queue_total";
          m_drop_loss = Obs.Metrics.counter metrics "netsim_link_drop_loss_total";
          m_drop_down = Obs.Metrics.counter metrics "netsim_link_drop_down_total";
          m_drop_ttl = Obs.Metrics.counter metrics "netsim_link_drop_ttl_total";
        };
  }

let obs t = t.obs

let arena t = t.arena

let link_counters t = Lazy.force t.link_counters

let set_watchdog t ?(every_events = 4096) f =
  if every_events < 1 then
    invalid_arg "Engine.set_watchdog: every_events must be >= 1";
  let countdown = ref every_events in
  Event_loop.after_entry t.loop (fun () ->
      decr countdown;
      if !countdown = 0 then begin
        countdown := every_events;
        f ()
      end)

let on_livelock t f = Event_loop.on_livelock t.loop f

let now t = t.clock.Event_heap.cell_time

let time_cell t = t.clock

let rng t = t.rng

let split_rng t = Stats.Rng.split t.rng

let past name time t =
  invalid_arg (Printf.sprintf "Engine.%s: time %g is in the past (now %g)" name time (now t))

let at t ~time callback =
  if time < t.clock.Event_heap.cell_time then past "at" time t;
  Event_loop.at t.loop ~time callback

let after t ~delay callback =
  if delay < 0. then invalid_arg "Engine.after: negative delay";
  Event_loop.after t.loop ~delay callback

let after_unit t ~delay callback =
  if delay < 0. then invalid_arg "Engine.after_unit: negative delay";
  Event_loop.after_unit t.loop ~delay callback

let after_pkt t ~delay pcb p =
  if delay < 0. then invalid_arg "Engine.after_pkt: negative delay";
  Event_loop.msg_at t.loop ~base:t.clock ~offset:delay pcb p 0

(* Checked on an unboxed sum; the heap's is bit for bit the same. *)
let at_unit t ~base ~offset callback =
  let time = base.Event_heap.cell_time +. offset in
  if time < t.clock.Event_heap.cell_time then past "at_unit" time t;
  Event_loop.at_unit t.loop ~base ~offset callback

let cancel t handle = Event_loop.cancel t.loop handle

let every t ~interval callback = Event_loop.every t.loop ~interval callback

let run ?until t = Event_loop.run ?until t.loop

let stop t = Event_loop.stop t.loop

let events_processed t = Event_loop.fired t.loop

let queue_consistent t =
  let heap = Event_loop.heap t.loop in
  Event_heap.well_formed heap
  && Option.fold ~none:true ~some:(fun next -> next >= now t) (Event_heap.peek_time heap)
