(** TFMCC packet formats (pure, transport-independent).

    One multicast data-packet header and one unicast receiver report,
    mirroring §2.4–2.5 of the paper: data packets carry the sender
    timestamp, current rate, feedback-round bookkeeping, one receiver-
    report echo (for RTT measurement) and the lowest report echoed so far
    this round (for suppression).

    This module owns the protocol's message ADT and byte codec and knows
    nothing about any runtime: the simulator wraps {!msg} into its
    packet payload ([Netsim_env]), the real-time runtime serializes it
    with the codec ([Rt]). *)

(** Echo of one receiver's report inside a data packet: lets exactly that
    receiver compute its instantaneous RTT. *)
type echo = {
  rx_id : int;  (** node id of the receiver whose report is echoed *)
  rx_ts : float;  (** the receiver's own timestamp from its report *)
  echo_delay : float;  (** sender hold time between report arrival and echo *)
}

(** Echo of the lowest-rate feedback of the current round, multicast to
    everyone for timer suppression. *)
type fb_echo = {
  fb_rx_id : int;
  fb_rate : float;  (** the reported (possibly sender-adjusted) rate, bytes/s *)
  fb_has_loss : bool;  (** report came from a receiver that has seen loss *)
}

type data = {
  session : int;
  seq : int;
  ts : float;  (** sender clock at transmission *)
  rate : float;  (** current sending rate X_send, bytes/s *)
  round : int;  (** feedback round number *)
  round_duration : float;  (** T for the current round, seconds *)
  max_rtt : float;  (** sender's current R_max estimate *)
  clr : int;  (** node id of the current limiting receiver; -1 if none *)
  in_slowstart : bool;
  echo : echo option;
  fb : fb_echo option;
  app : int;
      (** application block id carried by this packet, -1 for filler;
          the sender always writes -1 (congestion control is
          payload-agnostic), and the field stays on the wire for a
          reliability layer to carry block ids *)
}

type report = {
  session : int;
  rx_id : int;
  ts : float;  (** receiver clock at transmission *)
  echo_ts : float;  (** sender timestamp of the newest data packet seen *)
  echo_delay : float;  (** receiver hold time since that packet *)
  rate : float;  (** calculated rate X_r, bytes/s (receive-rate based
                     during slowstart) *)
  have_rtt : bool;  (** [rate] computed from a measured RTT? *)
  rtt : float;  (** receiver's current RTT estimate *)
  p : float;  (** loss event rate (diagnostics) *)
  x_recv : float;  (** measured receive rate, bytes/s *)
  round : int;  (** round this report answers *)
  has_loss : bool;  (** receiver has experienced loss (ends slowstart) *)
  leaving : bool;  (** explicit leave notification *)
}

type msg = Data of data | Report of report

val report_size : int
(** Receiver reports are 40 bytes on the wire. *)

val report_fields_valid :
  rx_id:int ->
  ts:float ->
  echo_ts:float ->
  echo_delay:float ->
  rate:float ->
  rtt:float ->
  p:float ->
  x_recv:float ->
  round:int ->
  bool
(** Field-level sanity of an inbound receiver report: all floats finite,
    [rate]/[x_recv] ≥ 0, [rtt] > 0, [p] ∈ [0,1], [echo_delay] ≥ 0,
    [round] ≥ -1 (a receiver that became CLR before its first feedback
    round legitimately reports round -1).  The sender drops reports that
    fail this (counted by {!Sender.malformed_reports_dropped}); round
    staleness is checked separately against the sender's round counter. *)

val data_fields_valid :
  seq:int ->
  ts:float ->
  rate:float ->
  round:int ->
  round_duration:float ->
  max_rtt:float ->
  clr:int ->
  echo:echo option ->
  fb:fb_echo option ->
  bool
(** Field-level sanity of an inbound data-packet header; receivers drop
    packets that fail this (counted by
    {!Receiver.malformed_data_dropped}) instead of feeding NaN rates or
    negative round durations into their timers. *)

(** {2 Byte codec}

    Little-endian serialization of the two payloads: the real-time
    runtime's on-the-wire format, also used by the robustness suite to
    fuzz the parsing path with raw bytes.  Decoding re-runs the field
    validators, so the contract is: {e any} byte string — random,
    truncated, or a bit-flipped valid encoding — either decodes to a
    payload that passes {!report_fields_valid} / {!data_fields_valid},
    or returns [Error]; it never raises and never yields NaN or
    out-of-range fields.

    Encoding enforces the dual contract at the source: both encoders
    raise [Invalid_argument] if any float field is NaN or infinite — a
    non-finite value would round-trip bit-exactly and only surface as a
    decode rejection at every receiver, so it is refused before it can
    reach the wire. *)

val encoded_report_size : int
(** 82 bytes (the simulator's accounting size {!report_size} models a
    more compact production encoding). *)

val encode_report : report -> bytes

val encode_report_into : bytes -> report -> int
(** Encodes into the first {!encoded_report_size} bytes of a
    caller-owned buffer (scratch reuse: no allocation per frame) and
    returns the number of bytes written.  Raises [Invalid_argument] if
    the buffer is too small or a float field is non-finite. *)

val decode_report : bytes -> (msg, string) result
(** [Ok (Report _)] or a validation error. *)

val encoded_data_size : int
(** 114 bytes; absent echo/fb sections are zero-filled and flag-masked.
    Real transports pad data frames up to the configured packet size;
    {!decode} only reads this header prefix. *)

val encode_data : data -> bytes

val encode_data_into : bytes -> data -> int
(** {!encode_report_into} for data frames: writes (and zero-fills) the
    first {!encoded_data_size} bytes of the caller's buffer, returning
    that length.  Any tail the caller keeps for padding is untouched. *)

val decode_data : bytes -> (msg, string) result
(** [Ok (Data _)] or a validation error.  Accepts trailing padding:
    any frame of at least {!encoded_data_size} bytes whose first
    {!encoded_data_size} bytes form a valid header. *)

val decode : ?len:int -> bytes -> (msg, string) result
(** Dispatches on the magic byte: report or data frame.  [len]
    (default [Bytes.length b]) is the frame's length: [decode ~len b]
    reads [b]'s first [len] bytes and returns exactly what
    [decode (Bytes.sub b 0 len)] returns, so the socket transport
    decodes each datagram in its receive buffer without copying it
    out.  Raises [Invalid_argument] if [len] is negative or exceeds
    [Bytes.length b].

    A decode allocates only the decoded message: 25 words for a data
    frame, 10 more with an echo and 8 more with an fb echo, and 32
    words for a report.  The encoders allocate nothing. *)

val frame_valid : msg -> bool
(** Whether [decode] accepts [m]'s own encoding, decided from [m]
    without decoding it: a non-negative session and the fields
    {!report_fields_valid} / {!data_fields_valid} check.  For every [m]
    that encodes, [frame_valid m] holds exactly when decoding the
    encoding succeeds, and the decoded message is then structurally
    equal to [m].  So a transport that carries [m] by value past an
    encode (the loopback fabric) can hand on [m] itself, and count a
    decode error where this is false.  Allocates nothing. *)

val corrupt_msg : Stats.Rng.t -> msg -> msg
(** Returns a copy of the message with one randomly chosen field
    mangled into a hostile value (NaN, negative, out-of-range, foreign
    session, stale/future round).  Deliberately produces exactly the
    malformed inputs the validators reject, so chaos runs exercise every
    guard; [Netsim_env.corrupt_packet] adapts this to
    [Netsim.Fault.corrupt]'s [mangle] argument and property tests use
    it directly. *)
