(** The heap under {!Event_loop}, the loop both backends run: a binary
    min-heap of timed entries with O(1) cancellation (lazy deletion).
    Ties in time are broken by insertion order, so two runs that
    schedule identically fire identically.

    Representation: the heap is three parallel unboxed arrays (time,
    insertion seq, payload slot), so a sift moves only floats and ints.
    Payloads sit in per-slot tables, written once at schedule and
    cleared at pop.  Each heap node is a {e tie run}: entries inserted
    one after another with the same due time, chained by slot behind
    one node.  An insert joins the previous insert's run when that
    entry is still pending and both due times have the same bits (so
    [-0.] never joins a [0.] run).  The members' seqs are consecutive,
    so nothing can sort between two of them: a member costs no sift at
    insert, and when one fires the next takes the node's place with no
    sift either.  Any other insert is O(log n) and a node's removal
    O(log n).  Slots are therefore not heap positions; the slot tables
    and the heap arrays grow together when the slots run out.  An entry
    is one of two things:

    - a closure, added with {!add} (which returns a cancel handle) or
      {!add_unit} (which returns none);
    - a message [(f, x, n)], added with {!add_msg}, which fires as the
      direct call [f x n].  The simulator's link arrivals ([x] a packet,
      [n] unused) and the rt fabric's frame deliveries ([x] the decoded
      message, [n] the datagram size) take this form, so an in-flight
      datagram costs no closure.

    No record is allocated per entry: {!add_unit}, {!add_msg} and the
    dispatch {!step} allocate nothing, and {!add} allocates only its
    small cancel handle (DESIGN.md §14). *)

type 'a t
(** A heap whose message entries carry an ['a].  ['a] must not be
    [float]. *)

type handle
(** Identifies a closure entry for cancellation. *)

val no_handle : handle
(** A handle of no entry in any heap: {!cancel} on it does nothing.
    An owner keeps it where no timer is armed, instead of an option. *)

type time_cell = { mutable cell_time : float }
(** All-float record (raw double storage): writes to it never box, and
    a read of [cell_time] is a raw double load.  Both backends keep
    their clock in one. *)

val time_zero : time_cell
(** A cell at time 0, the base of absolute deadlines: [~base:time_zero
    ~offset:time] is due at [time] exactly.  Never written. *)

val create : dummy:'a -> 'a t
(** [dummy] fills empty message slots and marks closure slots.  It must
    be a value no message ever carries (compared with [==]). *)

(** Every entry is due at [base.cell_time +. offset], summed inside the
    heap: an owner schedules [delay] seconds from now with its clock
    cell as [base] and passes [delay] as it holds it, so no deadline is
    boxed on the way in (DESIGN.md §14).  A due time at or before the
    current minimum is allowed.  Each raises [Invalid_argument] on a
    NaN due time. *)

val add : 'a t -> base:time_cell -> offset:float -> (unit -> unit) -> handle
(** Schedules a closure and returns its cancel handle. *)

val add_unit : 'a t -> base:time_cell -> offset:float -> (unit -> unit) -> unit
(** Like {!add} for fire-and-forget entries: no handle is returned and
    nothing is allocated. *)

val add_msg :
  'a t -> base:time_cell -> offset:float -> ('a -> int -> unit) -> 'a -> int -> unit
(** [add_msg t ~base ~offset f x n] schedules the call [f x n].  With a
    preallocated [f] this schedules a delivery without a closure.  A
    message cannot be cancelled.  Once popped, the slot drops its
    references to [f] and [x]. *)

val cancel : 'a t -> handle -> unit
(** Cancelling an already-fired or already-cancelled entry is a no-op,
    also once its slot holds a later entry. *)

val step : 'a t -> limit:float -> into:time_cell -> pre:(unit -> unit) -> bool
(** The one dispatch primitive, which {!Event_loop} drives.  Discards
    cancelled entries surfacing at the root; if the earliest live entry
    is due at or before [limit], removes it, writes its time into
    [into], runs [pre] (the caller's per-entry accounting) and then the
    entry, and returns [true].  Returns [false] when the heap is empty
    or the next entry is after [limit].  The entry leaves the heap
    before [pre] runs, so if [pre] or the entry raises, that entry is
    consumed and every other stays pending.  Entries fire in (time, insertion order), so an
    entry added at the current time by a callback fires after every
    existing entry sharing that time. *)

val livelock_events : int
(** 1,000,000: the most entries {!Event_loop.run} lets fire in a row
    without the due time rising before it calls the run a livelock. *)

val peek_time : 'a t -> float option
(** Time of the earliest live entry without removing it. *)

val size : 'a t -> int
(** Number of live (non-cancelled) entries. *)

val well_formed : 'a t -> bool
(** O(n) structural audit (used by the runtime invariant checker): no
    stored key is NaN, the (time, insertion-order) min-heap property
    holds on every parent/child edge, each tie run carries consecutive
    seqs in in-range slots, every slot in use belongs to exactly one
    entry, and the live count agrees with the stored entries.
    Read-only. *)
