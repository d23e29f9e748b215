(* Event loop for the real-time runtime (see loop.mli). *)

type mode = Turbo | Realtime

type t = {
  mode : mode;
  timers : Timer_heap.t;
  mutable vnow : float; (* turbo clock; realtime: last sampled value *)
  mutable clock : unit -> float; (* realtime monotonic clock *)
  obs : Obs.Sink.t;
  rng : Stats.Rng.t;
  late_tolerance : float;
  mutable running : bool;
  mutable fds : (Unix.file_descr * (unit -> unit)) list;
  mutable anomalies : int;
  (* Exception backstop (DESIGN.md §15): without a handler, an exception
     escaping a timer or fd callback propagates out of [run] — the
     pre-chaos behavior, and the right one for tests that want to see
     their own bugs.  With a handler installed (the supervised harness
     does), the loop survives: the exception is counted, handed to the
     handler, and the remaining timers keep firing. *)
  mutable exn_handler : (exn -> Printexc.raw_backtrace -> unit) option;
  mutable exns_caught : int;
  fire : (unit -> unit) -> unit; (* [protect t], built once for every timer *)
  fire_frame : (bytes -> int -> unit) -> bytes -> int -> unit; (* [protect_frame t] *)
}

(* Same metric family as Tfmcc_core.Env.clock_anomaly, registered
   lazily for the same reason: an anomaly-free run leaves the registry
   untouched. *)
let anomaly t ~kind =
  t.anomalies <- t.anomalies + 1;
  Obs.Metrics.Counter.inc
    (Obs.Metrics.counter t.obs.Obs.Sink.metrics
       ~labels:[ ("kind", kind) ]
       "tfmcc_rt_clock_anomaly_total")

(* Every timer and fd callback runs through [protect], and every frame
   delivery through [protect_frame].  The handler is consulted at fire
   time, not schedule time: installing it after timers are queued still
   protects them.  The metric is registered lazily so an exception-free
   run leaves the registry untouched. *)
let caught t handler e bt =
  t.exns_caught <- t.exns_caught + 1;
  Obs.Metrics.Counter.inc
    (Obs.Metrics.counter t.obs.Obs.Sink.metrics "tfmcc_rt_loop_exceptions_total");
  handler e bt

let protect t fn =
  match t.exn_handler with
  | None -> fn ()
  | Some handler -> (
      try fn () with e -> caught t handler e (Printexc.get_raw_backtrace ()))

(* The same backstop around a direct call: a wrapper closure per frame
   would cost 6 words. *)
let protect_frame t deliver frame size =
  match t.exn_handler with
  | None -> deliver frame size
  | Some handler -> (
      try deliver frame size
      with e -> caught t handler e (Printexc.get_raw_backtrace ()))

let create ?(mode = Turbo) ?(epoch = 0.) ?obs ?(seed = 42)
    ?(late_tolerance_s = 0.05) () =
  let obs = match obs with Some s -> s | None -> Obs.Sink.create () in
  let rec t =
    {
      mode;
      timers = Timer_heap.create ();
      vnow = epoch;
      clock = (fun () -> epoch);
      obs;
      rng = Stats.Rng.create seed;
      late_tolerance = late_tolerance_s;
      running = false;
      fds = [];
      anomalies = 0;
      exn_handler = None;
      exns_caught = 0;
      fire = (fun fn -> protect t fn);
      fire_frame = (fun deliver frame size -> protect_frame t deliver frame size);
    }
  in
  (match mode with
  | Turbo -> ()
  | Realtime ->
      let t0 = Unix.gettimeofday () in
      let raw () = epoch +. (Unix.gettimeofday () -. t0) in
      t.clock <-
        Tfmcc_core.Env.monotonic_clock
          ~on_anomaly:(fun _magnitude -> anomaly t ~kind:"clock-backstep")
          raw);
  t

let mode t = t.mode

let now t =
  match t.mode with
  | Turbo -> t.vnow
  | Realtime ->
      let n = t.clock () in
      t.vnow <- n;
      n

let obs t = t.obs

let split_rng t = Stats.Rng.split t.rng

let timer_of e = { Tfmcc_core.Env.cancel = (fun () -> Timer_heap.cancel e) }

let set_exn_handler t h = t.exn_handler <- Some h

let exceptions_caught t = t.exns_caught

let schedule_after t ~delay fn =
  let delay =
    if Float.is_finite delay && delay >= 0. then delay
    else begin
      anomaly t ~kind:"bad-delay";
      0.
    end
  in
  Timer_heap.schedule t.timers ~at:(now t +. delay) fn

let after t ~delay fn = timer_of (schedule_after t ~delay fn)

let after_unit t ~delay fn = ignore (schedule_after t ~delay fn : Timer_heap.timer)

let at t ~time fn =
  let time =
    if Float.is_finite time then time
    else begin
      anomaly t ~kind:"bad-delay";
      now t
    end
  in
  timer_of (Timer_heap.schedule t.timers ~at:time fn)

let frame_at t ~time deliver frame size =
  Timer_heap.schedule_frame t.timers ~at:time deliver frame size

(* Self-rescheduling periodic timer.  The next occurrence is queued
   before [fn] runs, so the chain survives a callback exception when an
   exn handler is installed, and cancel works mid-chain: the [cancelled]
   flag mutes whichever heap entry is current. *)
let every t ~interval fn =
  if not (Float.is_finite interval && interval > 0.) then
    invalid_arg "Loop.every: interval must be finite and positive";
  let cancelled = ref false in
  let cur = ref None in
  let rec arm ~time =
    let e =
      Timer_heap.schedule t.timers ~at:time (fun () ->
          if not !cancelled then begin
            arm ~time:(time +. interval);
            fn ()
          end)
    in
    cur := Some e
  in
  arm ~time:(now t +. interval);
  {
    Tfmcc_core.Env.cancel =
      (fun () ->
        cancelled := true;
        match !cur with None -> () | Some e -> Timer_heap.cancel e);
  }

let watch_fd t fd cb = t.fds <- (fd, cb) :: List.remove_assoc fd t.fds

let unwatch_fd t fd = t.fds <- List.remove_assoc fd t.fds

let stop t = t.running <- false

let run_turbo ?until t =
  let continue_ = ref true in
  while !continue_ && t.running do
    match Timer_heap.next_due t.timers with
    | None ->
        (match until with Some u -> t.vnow <- max t.vnow u | None -> ());
        continue_ := false
    | Some due -> (
        match until with
        | Some u when due > u ->
            t.vnow <- max t.vnow u;
            continue_ := false
        | _ ->
            if due > t.vnow then t.vnow <- due;
            ignore
              (Timer_heap.advance t.timers ~now:t.vnow ~fire:t.fire
                 ~fire_frame:t.fire_frame ()))
  done

let run_realtime ?until t =
  let stop_at = match until with Some u -> u | None -> infinity in
  let late at = if now t -. at > t.late_tolerance then anomaly t ~kind:"late-timer" in
  let continue_ = ref true in
  while !continue_ && t.running do
    let nw = now t in
    if nw >= stop_at then continue_ := false
    else begin
      ignore
        (Timer_heap.advance t.timers ~now:nw ~late ~fire:t.fire
           ~fire_frame:t.fire_frame ());
      match (Timer_heap.next_due t.timers, t.fds) with
      | None, [] -> continue_ := false
      | next, fds -> (
          let target =
            match next with Some a -> Float.min a stop_at | None -> stop_at
          in
          (* Cap the sleep so a far-off deadline still re-samples the
             clock (and anomaly counters) at a human timescale. *)
          let timeout = Float.max 0. (Float.min 0.25 (target -. now t)) in
          match fds with
          | [] -> if timeout > 0. then Unix.sleepf timeout
          | fds -> (
              match Unix.select (List.map fst fds) [] [] timeout with
              | ready, _, _ ->
                  List.iter
                    (fun fd ->
                      match List.assoc_opt fd t.fds with
                      | Some cb -> protect t cb
                      | None -> ())
                    ready
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()))
    end
  done

let run ?until t =
  t.running <- true;
  (match t.mode with
  | Turbo -> run_turbo ?until t
  | Realtime -> run_realtime ?until t);
  t.running <- false

let run_for t ~duration = run ~until:(now t +. duration) t

let timers_fired t = Timer_heap.fired t.timers

let timers_pending t = Timer_heap.pending t.timers

let clock_anomalies t = t.anomalies
