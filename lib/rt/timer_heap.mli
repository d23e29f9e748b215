(** Timer queue of the real-time loop: one binary min-heap on
    (deadline, insertion sequence).  An entry is either a closure timer
    ({!schedule}) or a frame delivery ({!schedule_frame}); both kinds
    share the heap and the sequence counter.

    Schedule is O(log n).  Cancel is O(1): it tombstones the entry,
    whose slot is reclaimed when it reaches the root.  Firing pops the
    root, so each fired timer costs one O(log n) pop and nothing is
    rescanned per advance (DESIGN.md §13 records why this replaced a
    hashed timer wheel).

    Determinism: callbacks fire in nondecreasing deadline order, ties
    broken by insertion sequence.  Two runs that schedule identically
    fire identically, which the turbo (virtual-time) loop relies on. *)

type t

type timer
(** Handle for {!cancel}. *)

val create : unit -> t

val schedule : t -> at:float -> (unit -> unit) -> timer
(** A deadline already in the past fires on the next {!advance}.
    @raise Invalid_argument on a NaN deadline. *)

val schedule_frame : t -> at:float -> (bytes -> int -> unit) -> bytes -> int -> unit
(** [schedule_frame t ~at deliver frame size] queues the call
    [deliver frame size] at [at], for a datagram of [size] bytes whose
    codec bytes are [frame].  Unlike {!schedule} it allocates nothing:
    the three values go into the slot's own arrays, not into a closure
    and a handle.  There is no handle, so a frame delivery cannot be
    cancelled.  It draws its seq from the same counter as {!schedule},
    so it fires in exactly the place a closure timer scheduled at the
    same moment would.  Once popped, the slot drops its reference to
    [frame]; [deliver] is expected to live as long as its endpoint.
    @raise Invalid_argument on a NaN deadline. *)

val cancel : timer -> unit
(** Idempotent; cancelling an already-fired timer is a no-op. *)

val next_due : t -> float option
(** Earliest pending (non-cancelled) deadline, or [None] when the heap
    holds no live timer.  The turbo loop jumps the virtual clock here;
    the realtime loop sleeps until it. *)

val advance :
  t ->
  now:float ->
  ?late:(float -> unit) ->
  fire:((unit -> unit) -> unit) ->
  fire_frame:((bytes -> int -> unit) -> bytes -> int -> unit) ->
  unit ->
  int
(** Pops and fires, one at a time, every live timer with deadline
    <= [now], in (deadline, seq) order.  Each callback [f] runs as
    [fire f] and each frame delivery as [fire_frame deliver frame size],
    so the loop can wrap both (exception backstop) without a closure per
    timer or frame.  Callbacks may schedule or cancel timers freely:
    a timer scheduled already due fires within the same advance, in its
    (deadline, seq) place, and a cancelled one never fires.  An entry
    is popped before it fires, so if [fire] or [fire_frame] raises, the
    raising entry is consumed and every other due entry stays pending.  More than a
    million firings of timers scheduled during one advance fail loudly
    as a runaway zero-delay chain rather than hanging.  [late] is
    called with each fired timer's deadline just before it fires, so a
    realtime caller can measure tardiness against a fresh clock sample
    ([now] is stale once an earlier callback in the same advance has
    blocked).  Returns the number of entries fired, frame deliveries
    included. *)

val pending : t -> int
(** Live (scheduled, not yet fired or cancelled) entries, frame
    deliveries included; a linear scan, for tests and diagnostics. *)

val fired : t -> int
(** Total entries fired over the heap's lifetime, frame deliveries
    included. *)
