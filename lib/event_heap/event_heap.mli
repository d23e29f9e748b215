(** The scheduler core of both backends: a binary min-heap of timed
    entries with O(log n) insert and pop and O(1) cancellation (lazy
    deletion).  [Netsim.Engine] and [Rt.Loop] each own one.  Ties in
    time are broken by insertion order, so two runs that schedule
    identically fire identically.

    Representation: the heap is three parallel unboxed arrays (time,
    insertion seq, payload slot), so a sift moves only floats and ints.
    Payloads sit in per-slot tables, written once at schedule and
    cleared at pop.  An entry is one of two things:

    - a closure, added with {!add} (which returns a cancel handle) or
      {!add_unit} (which returns none);
    - a message [(f, x, n)], added with {!add_msg}, which fires as the
      direct call [f x n].  The simulator's link arrivals ([x] a packet,
      [n] unused) and the rt fabric's frame deliveries ([x] the codec
      bytes, [n] the datagram size) take this form, so an in-flight
      datagram costs no closure.

    No record is allocated per entry: {!add_unit}, {!add_msg} and the
    dispatch {!step} allocate nothing, and {!add} allocates only its
    small cancel handle (DESIGN.md §14). *)

type 'a t
(** A heap whose message entries carry an ['a].  ['a] must not be
    [float]. *)

type handle
(** Identifies a closure entry for cancellation. *)

val create : dummy:'a -> 'a t
(** [dummy] fills empty message slots and marks closure slots.  It must
    be a value no message ever carries (compared with [==]). *)

val add : 'a t -> time:float -> (unit -> unit) -> handle
(** Schedules a closure.  [time] may be at or before the current
    minimum.
    @raise Invalid_argument on a NaN [time]. *)

val add_unit : 'a t -> time:float -> (unit -> unit) -> unit
(** Like {!add} for fire-and-forget entries: no handle is returned and
    nothing is allocated. *)

val add_msg : 'a t -> time:float -> ('a -> int -> unit) -> 'a -> int -> unit
(** [add_msg t ~time f x n] schedules the call [f x n] at [time].  With
    a preallocated [f] this schedules a delivery without a closure.  A
    message cannot be cancelled.  Once popped, the slot drops its
    references to [f] and [x].
    @raise Invalid_argument on a NaN [time]. *)

val cancel : 'a t -> handle -> unit
(** Cancelling an already-fired or already-cancelled entry is a no-op,
    also once its slot holds a later entry. *)

type time_cell = { mutable cell_time : float }
(** All-float record (raw double storage): writes to it never box. *)

val step : 'a t -> limit:float -> into:time_cell -> pre:(unit -> unit) -> bool
(** The one dispatch primitive.  Discards cancelled entries surfacing
    at the root; if the earliest live entry is due at or before
    [limit], removes it, writes its time into [into], runs [pre] (the
    caller's per-entry accounting) and then the entry, and returns
    [true].  Returns [false] when the heap is empty or the next entry
    is after [limit].  The entry leaves the heap before [pre] runs, so
    if [pre] or the entry raises, that entry is consumed and every other
    stays pending.  Entries fire in (time, insertion order), so an
    entry added at the current time by a callback fires after every
    existing entry sharing that time. *)

val peek_time : 'a t -> float option
(** Time of the earliest live entry without removing it. *)

val size : 'a t -> int
(** Number of live (non-cancelled) entries. *)

val well_formed : 'a t -> bool
(** O(n) structural audit (used by the runtime invariant checker): no
    stored key is NaN, the (time, insertion-order) min-heap property
    holds on every parent/child edge, and the live count agrees with the
    stored entries.  Read-only. *)
