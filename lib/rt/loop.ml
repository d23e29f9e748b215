(* Event loop for the real-time runtime (see loop.mli). *)

type mode = Turbo | Realtime

(* The core's clock cell is every hosted endpoint's [Env.clock].  Turbo
   leaves it to the core.  Realtime writes one monotonic sample per step
   (each fired entry, each fd callback, each pass of the run loop); no
   due entry is later than the sample, so the core never moves it. *)
type t = {
  mode : mode;
  core : Tfmcc_core.Wire.msg Event_loop.t;
  mutable read_clock : unit -> float; (* realtime monotonic clock *)
  obs : Obs.Sink.t;
  rng : Stats.Rng.t;
  mutable fds : (Unix.file_descr * (unit -> unit)) list;
  mutable anomalies : int;
  mutable exns_caught : int;
}

(* Same metric family as Tfmcc_core.Env.clock_anomaly, registered
   lazily: an anomaly-free run leaves the registry untouched. *)
let anomaly t ~kind =
  t.anomalies <- t.anomalies + 1;
  Obs.Metrics.Counter.inc
    (Obs.Metrics.counter t.obs.Obs.Sink.metrics
       ~labels:[ ("kind", kind) ]
       "tfmcc_rt_clock_anomaly_total")

let clock t = Event_loop.clock t.core

let now t = (clock t).Event_heap.cell_time

(* Realtime only: one clock sample, read by everything up to the next. *)
let sample t = (clock t).Event_heap.cell_time <- t.read_clock ()

(* Marks closure slots in the heap: the fabric never delivers it, since
   it schedules only messages it decoded and its undecodable marker. *)
let no_frame =
  Tfmcc_core.Wire.Data
    {
      session = -1;
      seq = -1;
      ts = 0.;
      rate = 0.;
      round = 0;
      round_duration = 0.;
      max_rtt = 0.;
      clr = -1;
      in_slowstart = false;
      echo = None;
      fb = None;
      app = -1;
    }

let create ?(mode = Turbo) ?(epoch = 0.) ?obs ?(seed = 42) () =
  let obs = match obs with Some s -> s | None -> Obs.Sink.create () in
  let core = Event_loop.create ~dummy:no_frame ~epoch in
  let t =
    {
      mode;
      core;
      read_clock = (fun () -> epoch);
      obs;
      rng = Stats.Rng.create seed;
      fds = [];
      anomalies = 0;
      exns_caught = 0;
    }
  in
  (match mode with
  | Turbo -> ()
  | Realtime ->
      let t0 = Unix.gettimeofday () in
      let raw () = epoch +. (Unix.gettimeofday () -. t0) in
      t.read_clock <-
        Tfmcc_core.Env.monotonic_clock
          ~on_anomaly:(fun _magnitude -> anomaly t ~kind:"clock-backstep")
          raw;
      sample t;
      (* Each fired entry takes its step's sample; 50 ms late is an
         anomaly. *)
      Event_loop.on_entry core (fun due ->
          sample t;
          if now t -. due.Event_heap.cell_time > 0.05 then
            anomaly t ~kind:"late-timer"));
  t

let mode t = t.mode

let obs t = t.obs

let split_rng t = Stats.Rng.split t.rng

(* The core's backstop (DESIGN.md §15), each catch counted (lazily). *)
let set_exn_handler t h =
  Event_loop.set_exn_handler t.core (fun e bt ->
      t.exns_caught <- t.exns_caught + 1;
      Obs.Metrics.Counter.inc
        (Obs.Metrics.counter t.obs.Obs.Sink.metrics "tfmcc_rt_loop_exceptions_total");
      h e bt)

let exceptions_caught t = t.exns_caught

(* [delay] itself (already boxed) or the constant 0.: no allocation. *)
let checked_delay t delay =
  if Float.is_finite delay && delay >= 0. then delay
  else begin
    anomaly t ~kind:"bad-delay";
    0.
  end

let after t ~delay fn = Event_loop.after t.core ~delay:(checked_delay t delay) fn

let after_unit t ~delay fn = Event_loop.after_unit t.core ~delay:(checked_delay t delay) fn

(* A non-finite time goes through [after]'s clamp: due now, counted. *)
let at t ~time fn =
  if Float.is_finite time then Event_loop.at t.core ~time fn else after t ~delay:time fn

let cancel t h = Event_loop.cancel t.core h

let frame_at t ~base ~offset deliver msg size =
  Event_loop.msg_at t.core ~base ~offset deliver msg size

let every t ~interval fn = Event_loop.every t.core ~interval fn

let watch_fd t fd cb = t.fds <- (fd, cb) :: List.remove_assoc fd t.fds

let unwatch_fd t fd = t.fds <- List.remove_assoc fd t.fds

(* Each pass fires what is due, then sleeps in [select] until the next
   deadline or a readable fd.  The sleep is capped, so a far-off
   deadline still re-samples the clock (and anomaly counters) at a human
   timescale; with no fd, [select] is a plain sleep. *)
let run_realtime ~stop_at t =
  let continue_ = ref true in
  while !continue_ do
    sample t;
    let nw = now t in
    if nw >= stop_at then continue_ := false
    else begin
      Event_loop.run ~until:nw t.core;
      match (Event_heap.peek_time (Event_loop.heap t.core), t.fds) with
      | None, [] -> continue_ := false
      | next, fds -> (
          let target = match next with Some a -> Float.min a stop_at | None -> stop_at in
          sample t;
          let timeout = Float.max 0. (Float.min 0.25 (target -. now t)) in
          match Unix.select (List.map fst fds) [] [] timeout with
          | ready, _, _ ->
              List.iter
                (fun fd ->
                  match List.assoc_opt fd t.fds with
                  | Some cb ->
                      sample t;
                      Event_loop.protect t.core cb
                  | None -> ())
                ready
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
    end
  done

let run ?until t =
  match (t.mode, until) with
  | Turbo, _ -> Event_loop.run ?until t.core
  | Realtime, Some u when Float.is_nan u -> invalid_arg "Loop.run: until is NaN"
  | Realtime, _ -> run_realtime ~stop_at:(Option.value until ~default:infinity) t

let timers_fired t = Event_loop.fired t.core

let timers_pending t = Event_heap.size (Event_loop.heap t.core)

let clock_anomalies t = t.anomalies
