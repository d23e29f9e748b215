(** Timer queue of the real-time loop: one binary min-heap on
    (deadline, insertion sequence).

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

val cancel : timer -> unit
(** Idempotent; cancelling an already-fired timer is a no-op. *)

val next_due : t -> float option
(** Earliest pending (non-cancelled) deadline, or [None] when the heap
    holds no live timer.  The turbo loop jumps the virtual clock here;
    the realtime loop sleeps until it. *)

val advance :
  t -> now:float -> ?late:(float -> unit) -> fire:((unit -> unit) -> unit) -> unit -> int
(** Pops and fires, one at a time, every live timer with deadline
    <= [now], in (deadline, seq) order.  Each callback [f] runs as
    [fire f], so the loop can wrap it (exception backstop) without a
    closure per timer.  Callbacks may schedule or cancel timers freely:
    a timer scheduled already due fires within the same advance, in its
    (deadline, seq) place, and a cancelled one never fires.  A timer
    is popped before it fires, so if [fire] raises, the raising timer
    is consumed and every other due timer stays pending.  More than a
    million firings of timers scheduled during one advance fail loudly
    as a runaway zero-delay chain rather than hanging.  [late] is
    called with each fired timer's deadline just before it fires, so a
    realtime caller can measure tardiness against a fresh clock sample
    ([now] is stale once an earlier callback in the same advance has
    blocked).  Returns the number of callbacks fired. *)

val pending : t -> int
(** Live (scheduled, not yet fired or cancelled) timers; a linear scan,
    for tests and diagnostics. *)

val fired : t -> int
(** Total callbacks fired over the heap's lifetime. *)
