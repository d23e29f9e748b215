type config = { control : Par.Control.t; max_events : int option }

let abort engine fmt =
  Printf.ksprintf
    (fun detail ->
      Obs.Sink.event (Engine.obs engine) ~time:(Engine.now engine)
        ~severity:Obs.Journal.Error (Obs.Journal.scope "netsim.watchdog")
        (Obs.Journal.Note ("watchdog abort: " ^ detail));
      raise (Par.Cancelled (Par.Stall detail)))
    fmt

(* The probes only read simulation state, so a watched run follows the
   exact trajectory of an unwatched one (the sim-time tick adds engine
   events, but touches neither protocol nor RNG state). *)
let install cfg engine =
  (match cfg.max_events with
  | Some m when m < 1 -> invalid_arg "Watchdog: max_events must be >= 1"
  | _ -> ());
  Engine.on_livelock engine (fun () ->
      abort engine "livelock: simulated time stuck at t=%.6f for over %d events"
        (Engine.now engine) Event_heap.livelock_events);
  (* Every 4096 events: event storms, and control polls while the clock
     is frozen and a sim-time schedule would never fire. *)
  Engine.set_watchdog engine ~every_events:4096 (fun () ->
      Par.Control.check cfg.control;
      match cfg.max_events with
      | Some m when Engine.events_processed engine > m ->
          abort engine "event storm: %d events processed (budget %d) at t=%.6f"
            (Engine.events_processed engine) m (Engine.now engine)
      | _ -> ());
  (* Every 0.25 simulated s: wall-clock overruns of runs with few events
     (callbacks blocking on IO, say), which the event hook misses. *)
  if Par.Control.cancelled cfg.control = None then
    ignore
      (Engine.every engine ~interval:0.25 (fun () -> Par.Control.check cfg.control)
        : unit -> unit)
