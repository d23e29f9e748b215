(** The event loop both backends run (DESIGN.md §13): [Netsim.Engine]
    and [Rt.Loop] are this loop plus what each backend keeps.  It owns
    one {!Event_heap.t} and one clock cell, and fires entries one at a
    time in (deadline, insertion) order.  Each fired entry is counted
    and moves the clock to its due time, never back (a past deadline
    fires without moving it).  Arguments are checked by the backends;
    here only the heap's NaN check applies. *)

type 'a t
(** A loop whose message entries carry an ['a] (see {!Event_heap}). *)

val create : dummy:'a -> epoch:float -> 'a t
(** A loop whose clock starts at [epoch]; [dummy] as for the heap. *)

val clock : 'a t -> Event_heap.time_cell
(** The loop's clock, read-only for callers. *)

val heap : 'a t -> 'a Event_heap.t
(** The heap, for queries only. *)

val on_entry : 'a t -> (Event_heap.time_cell -> unit) -> unit
(** Sets the backend's per-entry accounting, run after the loop's own
    and before the entry, with the cell holding the entry's due time. *)

val after_entry : 'a t -> (unit -> unit) -> unit
(** Sets a hook {!run} calls after each entry returns. *)

val on_livelock : 'a t -> (unit -> unit) -> unit
(** Sets what {!run} calls on a livelock before it fails. *)

val after : 'a t -> delay:float -> (unit -> unit) -> Event_heap.handle
val after_unit : 'a t -> delay:float -> (unit -> unit) -> unit
val at : 'a t -> time:float -> (unit -> unit) -> Event_heap.handle

val at_unit :
  'a t -> base:Event_heap.time_cell -> offset:float -> (unit -> unit) -> unit

val msg_at :
  'a t ->
  base:Event_heap.time_cell ->
  offset:float ->
  ('a -> int -> unit) ->
  'a ->
  int ->
  unit
(** The message entry: the call [f x n] at [base +. offset]
    ({!Event_heap.add_msg}); it allocates nothing. *)

val cancel : 'a t -> Event_heap.handle -> unit

val every : 'a t -> interval:float -> (unit -> unit) -> unit -> unit
(** Fires first at now + [interval], then every [interval], until the
    returned function is called.  Each occurrence is queued before the
    callback runs, so the chain survives a caught exception.
    @raise Invalid_argument on a non-finite or non-positive interval. *)

val set_exn_handler : 'a t -> (exn -> Printexc.raw_backtrace -> unit) -> unit
(** The backstop: an exception escaping an entry goes to the handler
    and the run goes on.  Without one it propagates out of {!run}, that
    entry consumed and every other pending. *)

val protect : 'a t -> (unit -> unit) -> unit
(** Runs a callback under the backstop. *)

val run : ?until:float -> 'a t -> unit
(** Fires entries until none is due at or before [until] (default
    [infinity]) or {!stop} is called; then, unless stopped, the clock
    lands on [until] if it is behind.  An entry scheduled at the current
    time fires after those already pending at that time.  More than
    {!Event_heap.livelock_events} entries in a row without the due time
    rising (a runaway zero-delay chain) call {!on_livelock}'s hook and
    then fail with [Failure], past any handler.
    @raise Invalid_argument on a NaN [until], which no deadline passes. *)

val stop : 'a t -> unit
(** Makes the innermost {!run} return after the current entry. *)

val fired : 'a t -> int
(** Entries fired over the loop's lifetime. *)
