(** Binary min-heap of timed events with O(log n) insert / pop and O(1)
    cancellation (lazy deletion).  Ties in time are broken by insertion
    order so simulations are deterministic.

    Representation: the heap is three parallel unboxed arrays (time,
    insertion seq, payload slot), so a sift moves only floats and ints.
    Payloads sit in per-slot tables — a closure, or a packet callback
    plus its packet — written once at schedule and cleared at pop.  No
    record is allocated per event: {!add_unit}, {!add_pkt} and the
    engine's dispatch {!step} allocate nothing, and {!add} allocates
    only its small cancel handle.  [lib/rt]'s timer heap uses the same
    layout (DESIGN.md §13). *)

type t

type handle
(** Identifies a scheduled event for cancellation. *)

val create : unit -> t

val add : t -> time:float -> (unit -> unit) -> handle
(** Schedules a callback.  [time] may equal the current minimum. *)

val add_unit : t -> time:float -> (unit -> unit) -> unit
(** Like {!add} for fire-and-forget events: no handle is returned and
    nothing is allocated. *)

val add_pkt : t -> time:float -> (Packet.t -> unit) -> Packet.t -> unit
(** Fire-and-forget packet event: at [time], applies the given function
    to the packet.  With a preallocated per-link function this schedules
    a delivery without a per-packet closure. *)

val cancel : t -> handle -> unit
(** Cancelling an already-fired or already-cancelled event is a no-op,
    also once its slot holds a later event. *)

val pop : t -> (float * (unit -> unit)) option
(** Removes and returns the earliest live event, skipping cancelled ones.
    [None] when no live events remain. *)

val peek_time : t -> float option
(** Time of the earliest live event without removing it. *)

type time_cell = { mutable cell_time : float }
(** All-float record (raw double storage): writes to it never box. *)

val step : t -> limit:float -> into:time_cell -> pre:(unit -> unit) -> bool
(** The engine's dispatch step.  Discards cancelled events surfacing at
    the root; if the earliest live event is due at or before [limit],
    removes it, writes its time into [into], runs [pre] (the caller's
    per-event accounting) and then the event's callback, and returns
    [true].  Returns [false] when the heap is empty or the next event is
    after [limit].  Events fire in (time, insertion order), so an event
    added at the current time by a callback fires after every existing
    event sharing that time. *)

val size : t -> int
(** Number of live (non-cancelled) events. *)

val is_empty : t -> bool

val well_formed : t -> bool
(** O(n) structural audit (used by the runtime invariant checker): no
    stored key is NaN, the (time, insertion-order) min-heap property
    holds on every parent/child edge, and the live count agrees with the
    stored events.  Read-only. *)
