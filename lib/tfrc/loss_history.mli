(** Loss-event measurement by the weighted average loss interval (WALI)
    method of TFRC (paper §2.3, App. B; RFC 3448 §5).

    The receiver feeds every arriving data packet's sequence number in;
    gaps in the sequence space are losses.  Losses within one RTT of the
    start of the current loss event are aggregated into that event.  The
    loss event rate p is the inverse of the weighted average of the n
    most recent loss intervals, where the interval since the most recent
    loss event (the "open" interval) is counted only if doing so reduces
    p.

    The first loss interval has no preceding loss event; following the
    paper's Appendix B it is seeded synthetically from the receive rate
    at the time of the first loss via the [first_interval] callback, and
    may later be rescaled when the first real RTT measurement replaces
    the 500 ms initial RTT (see {!rescale_synthetic}). *)

type t

val create :
  clock:Event_heap.time_cell ->
  rtt:(unit -> float) ->
  ?n_intervals:int ->
  ?first_interval:(unit -> float option) ->
  unit ->
  t
(** [clock] is the owner's runtime clock, the arrival time of every
    packet.  [rtt] returns the receiver's current RTT estimate, which
    aggregates losses into loss events; it is called only when a packet
    opens a gap, so a packet in sequence passes and boxes no float
    (DESIGN.md §14).  [n_intervals] defaults to 8 (the paper recommends
    8–32).  [first_interval] is consulted when the first loss event
    occurs; it should return the synthetic initial interval in packets
    ([None] falls back to the count of packets received before the
    loss). *)

val on_packet : t -> seq:int -> unit
(** Processes the arrival of packet [seq] now.  Sequence numbers start
    at 0 and gaps are interpreted as losses (links are FIFO, so there is
    no reordering to tolerate).  Duplicates and late packets are
    ignored.
    @raise Invalid_argument on a negative [seq], or when a gap opens and
    [rtt ()] is not finite and positive. *)

val loss_event_rate : t -> float
(** p ∈ [0, 1]; 0 before the first loss event. *)

val mean_interval : t -> float
(** 1/p, i.e. the governing weighted average interval; [infinity] before
    the first loss event. *)

val has_loss : t -> bool

val loss_events : t -> int
(** Number of distinct loss events seen. *)

val packets_seen : t -> int
(** Count of data packets that actually arrived. *)

val closed_intervals : t -> float list
(** Most recent first; at most [n_intervals] values. *)

val remodel : t -> rtt:float -> unit
(** App. A's full correction: re-aggregates the retained log of recent
    loss gaps (up to 64) into loss events under a different RTT and
    rebuilds the interval history from them — "storing information about
    some of the more recently lost packets and approximating the correct
    distribution of loss intervals", as the paper puts it.  Intervals
    older than the retained gap log are kept as they were.  Call this
    when the first real RTT measurement replaces the initial estimate
    used for aggregation.
    @raise Invalid_argument unless [rtt] is finite and positive. *)

val rescale_synthetic : t -> factor:float -> unit
(** Multiplies the synthetic first interval by [factor] (clamped below at
    1 packet) if it is still present in the history; no-op otherwise.
    Used when the first real RTT measurement arrives (paper App. B:
    factor = (R_real / R_initial)²). *)

val weights : t -> float array
(** The WALI weights in use, most recent interval first (for tests). *)
