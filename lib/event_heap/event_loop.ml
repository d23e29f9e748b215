(* The event loop of both backends (see event_loop.mli). *)

exception Livelock

(* All-float cells, so the per-entry stores do not box (DESIGN.md §14).
   The heap writes each popped time into [popped]; [last] is the largest
   so far, which the clock never trails: it is checked only as [last] rises. *)
type 'a t = {
  heap : 'a Event_heap.t;
  clock : Event_heap.time_cell;
  popped : Event_heap.time_cell;
  last : Event_heap.time_cell;
  mutable fired : int;
  mutable chain : int; (* entries fired since [last] rose *)
  mutable stopped : bool;
  mutable exn_handler : exn -> Printexc.raw_backtrace -> unit; (* default: re-raise *)
  mutable on_entry : Event_heap.time_cell -> unit;
  mutable after_entry : unit -> unit;
  mutable on_livelock : unit -> unit;
  pre : unit -> unit; (* [fire t], built once for every entry *)
}

(* [Event_heap.step]'s [pre]: between the pop and the entry. *)
let fire t () =
  t.fired <- t.fired + 1;
  let time = t.popped.Event_heap.cell_time in
  if time > t.last.Event_heap.cell_time then begin
    t.last.Event_heap.cell_time <- time;
    t.chain <- 0;
    if time > t.clock.Event_heap.cell_time then t.clock.Event_heap.cell_time <- time
  end
  else begin
    t.chain <- t.chain + 1;
    if t.chain > Event_heap.livelock_events then raise Livelock
  end;
  t.on_entry t.popped

let create ~dummy ~epoch =
  let rec t =
    {
      heap = Event_heap.create ~dummy;
      clock = { Event_heap.cell_time = epoch };
      popped = { Event_heap.cell_time = epoch };
      last = { Event_heap.cell_time = neg_infinity };
      fired = 0;
      chain = 0;
      stopped = false;
      exn_handler = Printexc.raise_with_backtrace;
      on_entry = ignore;
      after_entry = ignore;
      on_livelock = ignore;
      pre = (fun () -> fire t ());
    }
  in
  t

let clock t = t.clock

let heap t = t.heap

let on_entry t f = t.on_entry <- f

let after_entry t f = t.after_entry <- f

let on_livelock t f = t.on_livelock <- f

let after t ~delay fn = Event_heap.add t.heap ~base:t.clock ~offset:delay fn

let after_unit t ~delay fn = Event_heap.add_unit t.heap ~base:t.clock ~offset:delay fn

let at t ~time fn = Event_heap.add t.heap ~base:Event_heap.time_zero ~offset:time fn

let at_unit t ~base ~offset fn = Event_heap.add_unit t.heap ~base ~offset fn

let msg_at t ~base ~offset f x n = Event_heap.add_msg t.heap ~base ~offset f x n

let cancel t h = Event_heap.cancel t.heap h

(* [stopped] mutes the queued occurrence, which is cancelled too. *)
let every t ~interval fn =
  if not (Float.is_finite interval && interval > 0.) then
    invalid_arg "Event_loop.every: interval must be finite and positive";
  let stopped = ref false in
  let cur = ref Event_heap.no_handle in
  let rec arm ~time =
    cur :=
      at t ~time (fun () ->
          if not !stopped then begin
            arm ~time:(time +. interval);
            fn ()
          end)
  in
  arm ~time:(t.clock.Event_heap.cell_time +. interval);
  fun () ->
    stopped := true;
    cancel t !cur

let set_exn_handler t h = t.exn_handler <- h

let protect t fn = try fn () with e -> t.exn_handler e (Printexc.get_raw_backtrace ())

(* Re-entered after each exception the backstop takes; top-level, so
   that a run allocates nothing. *)
let rec drain t ~limit =
  match
    while (not t.stopped) && Event_heap.step t.heap ~limit ~into:t.popped ~pre:t.pre do
      t.after_entry ()
    done
  with
  | () -> ()
  | exception Livelock ->
      t.on_livelock ();
      failwith "Event_loop.run: runaway zero-delay chain"
  | exception e ->
      t.exn_handler e (Printexc.get_raw_backtrace ());
      drain t ~limit

let run ?until t =
  let limit = match until with Some u -> u | None -> infinity in
  if Float.is_nan limit then invalid_arg "Event_loop.run: until is NaN";
  t.stopped <- false;
  drain t ~limit;
  match until with
  | Some u when (not t.stopped) && u > t.clock.Event_heap.cell_time ->
      t.clock.Event_heap.cell_time <- u
  | _ -> ()

let stop t = t.stopped <- true

let fired t = t.fired
