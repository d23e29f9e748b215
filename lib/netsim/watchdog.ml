type config = { control : Par.Control.t; max_events : int option }

(* Events between event-count checks, and simulated seconds between
   control polls. *)
let check_every = 4096

let sim_interval = 0.25

let validate cfg =
  match cfg.max_events with
  | Some m when m < 1 -> invalid_arg "Watchdog: max_events must be >= 1"
  | _ -> ()

let abort engine detail =
  let sink = Engine.obs engine in
  Obs.Sink.event sink ~time:(Engine.now engine) ~severity:Obs.Journal.Error
    (Obs.Journal.scope "netsim.watchdog")
    (Obs.Journal.Note ("watchdog abort: " ^ detail));
  raise (Par.Cancelled (Par.Stall detail))

let install cfg engine =
  validate cfg;
  (* Progress state: the last simulated time at which the clock moved,
     and the event count when it did.  Both hooks below only read
     simulation state, so a watched run follows the exact trajectory of
     an unwatched one (the sim-time tick does add engine events, but
     its callback touches neither protocol nor RNG state). *)
  let last_time = ref neg_infinity in
  let anchor = ref 0 in
  let tick () =
    Par.Control.check cfg.control;
    let now = Engine.now engine in
    let processed = Engine.events_processed engine in
    (match cfg.max_events with
    | Some m when processed > m ->
        abort engine
          (Printf.sprintf
             "event storm: %d events processed (budget %d) at t=%.6f"
             processed m now)
    | _ -> ());
    if now > !last_time then begin
      last_time := now;
      anchor := processed
    end
    else if processed - !anchor >= Event_heap.livelock_events then
      abort engine
        (Printf.sprintf
           "livelock: simulated time stuck at t=%.6f for %d events" now
           (processed - !anchor))
  in
  (* Event-count hook: catches livelock and event storms, where the
     simulated clock is frozen and a sim-time schedule would never
     fire. *)
  Engine.set_watchdog engine ~every_events:check_every tick;
  (* Sim-time hook: catches wall-clock overruns of simulations that
     process few events per wall second (e.g. callbacks blocking on IO),
     which the event-count hook would sample too rarely. *)
  if Par.Control.cancelled cfg.control = None then
    Engine.every engine ~interval:sim_interval (fun () ->
        Par.Control.check cfg.control)
