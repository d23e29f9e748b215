(** TFMCC receiver.

    Measures the loss event rate (WALI, App. B initialization), its RTT
    (initial value, echo measurements, one-way adjustments) and receive
    rate, computes the TCP-friendly calculated rate from the control
    equation, and takes part in the biased feedback rounds: timers drawn
    per §2.5.1, cancellation per §2.5.2, CLR duty (immediate periodic
    reports) when elected, slowstart receive-rate reports before the
    first loss.

    Runtime-agnostic like the sender: all IO goes through the {!Env.t},
    inbound data packets arrive via {!deliver_data} from the hosting
    environment. *)

type t

val create :
  env:Env.t ->
  cfg:Config.t ->
  session:int ->
  sender:int ->
  ?report_to:int ->
  ?clock_offset:float ->
  ?ntp_error:float ->
  unit ->
  t
(** The receiver's node id is [env.id]; [sender] is the sender's node
    id.  The receiver does not receive traffic until {!join}.
    [report_to] redirects reports to an aggregation-tree parent instead
    of the sender (§6.1; default the sender itself).  [clock_offset]
    shifts this receiver's local clock to exercise the skew-cancellation
    of §2.4.3 (default 0).  [ntp_error], when given, enables §2.4.1's
    synchronized-clock RTT initialization: the receiver treats its clock
    as synchronized to the sender's within that bound and seeds its RTT
    estimate from the first packet's one-way delay (callers should keep
    [clock_offset] within [ntp_error] for the model to be meaningful).
    Report packets carry the accounting tag -1.  Calls [env.split_rng] exactly once. *)

val deliver_data : t -> size:int -> Wire.data -> unit
(** Feeds one inbound data packet to the receiver.  [size] is the
    on-the-wire datagram size in bytes (feeds the receive-rate meter).
    Data of this session is validated and processed; data of another
    session is ignored.  Once joined, data of this session rejected
    before touching any receiver state (non-finite timestamps or rates,
    negative sequence numbers or round durations, corrupted echo
    fields) counts under [tfmcc_receiver_malformed_drops_total]. *)

val join : t -> unit
(** Joins the multicast group (idempotent). *)

val leave : t -> ?explicit_leave:bool -> unit -> unit
(** Leaves the group.  With [explicit_leave] (default true) a leave
    report is unicast to the sender so it can react immediately; without
    it the sender must rely on its CLR timeout. *)

val node_id : t -> int

val joined : t -> bool

val loss_event_rate : t -> float

val rtt : t -> float

val has_rtt_measurement : t -> bool

val x_recv : t -> float
(** Receive rate, bytes/s. *)

val is_clr : t -> bool

val has_loss : t -> bool

val packets_received : t -> int

val reports_sent : t -> int

val timers_suppressed : t -> int
(** Feedback timers cancelled by echoed feedback (diagnostic). *)
