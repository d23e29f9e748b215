(** Sliding-window receive-rate measurement (X_recv in TFRC/TFMCC).
    Keeps the arrivals of the last [window] seconds and reports their
    average rate.  The window is adjustable at runtime because TFMCC
    measures the receive rate over a few RTTs and the RTT estimate
    changes.

    The meter reads the time from its owner's clock cell, so recording
    an arrival passes no float, and the owner sets the window by
    writing an all-float cell: a receiver's per-packet update boxes
    nothing (DESIGN.md §14). *)

type t

type window = { mutable seconds : float }
(** All-float record (raw double storage) holding the averaging window.
    The owner may rewrite [seconds] at any time; it must be finite and
    positive, which {!record} and {!rate_bytes_per_s} check. *)

val create : clock:Event_heap.time_cell -> ?window:float -> unit -> t
(** [clock] is the owner's runtime clock.  Default window 1 s.
    @raise Invalid_argument unless [window] is finite and positive. *)

val window : t -> window
(** The meter's own window cell. *)

val record : t -> bytes:int -> unit
(** Records [bytes] arriving now.  Times must be non-decreasing.
    @raise Invalid_argument on a non-finite or decreasing time, or a
    window that is not finite and positive. *)

val rate_bytes_per_s : t -> float
(** Bytes/s now, over min(window, time since first arrival), floored at
    half the window so that a burst of back-to-back arrivals cannot read
    as an arbitrarily high rate; 0 before any arrival.
    @raise Invalid_argument on a window that is not finite and
    positive. *)
