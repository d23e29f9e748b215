(* Event loop for the real-time runtime (see loop.mli). *)

type mode = Turbo | Realtime

(* The loop clock is the all-float cell [clock], the one every hosted
   endpoint's [Env.clock] names: its readers load a raw double, and the
   heap sums [after] deadlines from it, so neither boxes (DESIGN.md
   §13).  Turbo moves it to each fired entry's time (never back);
   realtime writes one monotonic sample per step (each fired entry, each
   fd callback, each pass of the run loop), so every read within one
   callback sees one instant.  The heap writes each popped time into
   the separate [popped]: [at] accepts past deadlines, so the popped
   time is not always the new clock. *)
type t = {
  mode : mode;
  heap : Tfmcc_core.Wire.msg Event_heap.t;
  clock : Event_heap.time_cell; (* turbo time; realtime: latest sample *)
  popped : Event_heap.time_cell; (* time of the entry being fired *)
  last : Event_heap.time_cell; (* previous popped time, for [chain] *)
  mutable read_clock : unit -> float; (* realtime monotonic clock *)
  obs : Obs.Sink.t;
  rng : Stats.Rng.t;
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
  mutable fired : int;
  mutable chain : int; (* entries fired since the popped time last rose *)
  pre : unit -> unit; (* [on_fire t], built once for every entry *)
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

(* Every heap step and fd callback runs under the backstop.  The
   handler is consulted at fire time, not schedule time: installing it
   after timers are queued still protects them.  The metric is
   registered lazily so an exception-free run leaves the registry
   untouched. *)
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

let now t = t.clock.Event_heap.cell_time

let clock t = t.clock

(* Realtime only: one clock sample, read by everything up to the next. *)
let sample t = t.clock.Event_heap.cell_time <- t.read_clock ()

(* Zero-delay chains are finite in TFMCC (its timers are paced); the
   [Event_heap.livelock_events] cap turns a runaway chain into a crash
   instead of a hang.  It counts entries fired without the popped time
   rising, so only a chain at one instant (or of past deadlines) trips
   it.  [Runaway] gets past the backstop; [run] turns it into
   [Failure]. *)
exception Runaway

(* How tardy a realtime timer may fire before it counts as a clock
   anomaly, seconds. *)
let late_tolerance = 0.05

(* Per-entry accounting, run by [Event_heap.step] between the pop and
   the fire: count, move the turbo clock forward (never back), take the
   realtime step's clock sample and check the entry's tardiness against
   it, and cap the chain. *)
let on_fire t =
  t.fired <- t.fired + 1;
  let time = t.popped.Event_heap.cell_time in
  (match t.mode with
  | Turbo -> if time > t.clock.Event_heap.cell_time then t.clock.Event_heap.cell_time <- time
  | Realtime ->
      sample t;
      if now t -. time > late_tolerance then anomaly t ~kind:"late-timer");
  if time > t.last.Event_heap.cell_time then begin
    t.last.Event_heap.cell_time <- time;
    t.chain <- 0
  end
  else begin
    t.chain <- t.chain + 1;
    if t.chain > Event_heap.livelock_events then raise Runaway
  end

(* Marks closure slots in the heap: the fabric never delivers this
   message, since every message it schedules is one it decoded (or its
   own undecodable marker). *)
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
  let rec t =
    {
      mode;
      heap = Event_heap.create ~dummy:no_frame;
      clock = { Event_heap.cell_time = epoch };
      popped = { Event_heap.cell_time = epoch };
      last = { Event_heap.cell_time = neg_infinity };
      read_clock = (fun () -> epoch);
      obs;
      rng = Stats.Rng.create seed;
      fds = [];
      anomalies = 0;
      exn_handler = None;
      exns_caught = 0;
      fired = 0;
      chain = 0;
      pre = (fun () -> on_fire t);
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
      sample t);
  t

let mode t = t.mode

let obs t = t.obs

let split_rng t = Stats.Rng.split t.rng

let timer_of t h = { Tfmcc_core.Env.cancel = (fun () -> Event_heap.cancel t.heap h) }

let set_exn_handler t h = t.exn_handler <- Some h

let exceptions_caught t = t.exns_caught

(* Returns [delay] itself (already boxed) or the constant 0., so the
   call allocates nothing; the heap adds it to the clock cell. *)
let checked_delay t delay =
  if Float.is_finite delay && delay >= 0. then delay
  else begin
    anomaly t ~kind:"bad-delay";
    0.
  end

let after t ~delay fn =
  timer_of t (Event_heap.add t.heap ~base:t.clock ~offset:(checked_delay t delay) fn)

let after_unit t ~delay fn =
  Event_heap.add_unit t.heap ~base:t.clock ~offset:(checked_delay t delay) fn

let at t ~time fn =
  let time =
    if Float.is_finite time then time
    else begin
      anomaly t ~kind:"bad-delay";
      now t
    end
  in
  timer_of t (Event_heap.add t.heap ~base:Event_heap.time_zero ~offset:time fn)

let frame_at t ~base ~offset deliver msg size =
  Event_heap.add_msg t.heap ~base ~offset deliver msg size

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
    let h =
      Event_heap.add t.heap ~base:Event_heap.time_zero ~offset:time (fun () ->
          if not !cancelled then begin
            arm ~time:(time +. interval);
            fn ()
          end)
    in
    cur := Some h
  in
  arm ~time:(now t +. interval);
  {
    Tfmcc_core.Env.cancel =
      (fun () ->
        cancelled := true;
        match !cur with None -> () | Some h -> Event_heap.cancel t.heap h);
  }

let watch_fd t fd cb = t.fds <- (fd, cb) :: List.remove_assoc fd t.fds

let unwatch_fd t fd = t.fds <- List.remove_assoc fd t.fds

(* One heap step under the backstop: with a handler, a raising entry
   is consumed and caught and the loop goes on. *)
let step t ~limit =
  match t.exn_handler with
  | None -> Event_heap.step t.heap ~limit ~into:t.popped ~pre:t.pre
  | Some handler -> (
      try Event_heap.step t.heap ~limit ~into:t.popped ~pre:t.pre with
      | Runaway -> raise Runaway
      | e ->
          caught t handler e (Printexc.get_raw_backtrace ());
          true)

let run_realtime ~stop_at t =
  let continue_ = ref true in
  while !continue_ do
    sample t;
    let nw = now t in
    if nw >= stop_at then continue_ := false
    else begin
      while step t ~limit:nw do
        ()
      done;
      match (Event_heap.peek_time t.heap, t.fds) with
      | None, [] -> continue_ := false
      | next, fds -> (
          let target =
            match next with Some a -> Float.min a stop_at | None -> stop_at
          in
          (* Cap the sleep so a far-off deadline still re-samples the
             clock (and anomaly counters) at a human timescale. *)
          sample t;
          let timeout = Float.max 0. (Float.min 0.25 (target -. now t)) in
          match fds with
          | [] -> if timeout > 0. then Unix.sleepf timeout
          | fds -> (
              match Unix.select (List.map fst fds) [] [] timeout with
              | ready, _, _ ->
                  List.iter
                    (fun fd ->
                      match List.assoc_opt fd t.fds with
                      | Some cb ->
                          sample t;
                          protect t cb
                      | None -> ())
                    ready
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()))
    end
  done

(* Turbo steps straight through the heap: [on_fire] jumps the clock to
   each entry's time, and an empty or not-yet-due heap lands it on
   [until]. *)
let run ?until t =
  let limit = match until with Some u -> u | None -> infinity in
  if Float.is_nan limit then invalid_arg "Loop.run: until is NaN";
  t.chain <- 0;
  try
    match t.mode with
    | Turbo -> (
        while step t ~limit do
          ()
        done;
        match until with
        | Some u when u > now t -> t.clock.Event_heap.cell_time <- u
        | Some _ | None -> ())
    | Realtime -> run_realtime ~stop_at:limit t
  with Runaway -> failwith "Loop.run: runaway zero-delay timer chain"

let timers_fired t = t.fired

let timers_pending t = Event_heap.size t.heap

let clock_anomalies t = t.anomalies
