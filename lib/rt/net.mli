(** The real-time runtime's transport: endpoints that exchange real
    codec frames, carried one of two ways, chosen when the [t] is built.

    - The {e fabric} ({!create}) is an in-memory switch: one process can
      carry thousands of concurrent sessions without file-descriptor
      limits.  Each copy goes through a netem-style impairment shim —
      independent Bernoulli loss, fixed base delay, and uniform jitter,
      drawn from one RNG stream split off the loop's master seed, so a
      turbo-mode run is reproducible end to end — and lands from a loop
      frame slot.
    - {e Sockets} ({!create_udp}) give each endpoint a nonblocking UDP
      socket bound to an ephemeral port on 127.0.0.1; the loop's
      [select] watches every socket and drains it on readability.  This
      is the "prove it's real" way: frames cross the kernel, at one file
      descriptor per endpoint ([tfmcc-sim loopback --udp]).  Realtime
      loop mode only — virtual time outruns any socket.

    Everything else is one implementation for both.  Multicast is
    per-session group membership: [To_group] fans a frame out to every
    joined member except the sender, [To_node] unicasts.  Each send
    encodes its message once into the transport's scratch buffer
    ({!Tfmcc_core.Wire.encode_report_into} / [encode_data_into]).  On
    the fabric nothing decodes it: every copy carries the sender's own
    immutable message, as the simulator's receivers share a packet, and
    {!Tfmcc_core.Wire.frame_valid} decides what a decode would have
    (the two agree on every message that encodes); on sockets every
    copy is the encoded datagram, decoded in place by the receiving
    endpoint.

    Frames that fail to encode (non-finite field escaping the protocol
    core) are dropped and counted under [tfmcc_rt_frame_drop_total
    {reason="encode"}] rather than crashing the loop.  A copy that
    reaches an endpoint with a deliver hook but does not decode counts
    [reason="decode"].

    Chaos hooks (driven by {!Chaos} plans, DESIGN.md §15) apply on both
    ways: the whole transport can flap down/up, and individual
    endpoints can be blocked (partitioned/churned — frames to {e or}
    from a blocked endpoint are dropped at send time, counted under
    [reason="partition"]; flap drops count [reason="flap"]).  The
    impairment profile is fixed at {!create}.  All chaos mutations
    happen from loop timers, so a turbo-mode chaos run is as
    deterministic as a clean one. *)

type t

type endpoint

type impairment = {
  loss : float;
  delay : float;
  jitter : float;
  warmup : float;
}
(** [loss] is a per-frame drop probability in [0,1]; [delay] a fixed
    one-way latency in seconds; [jitter] the width of a uniform extra
    delay in seconds.  [warmup] holds the loss dice until that many
    seconds after fabric creation (netem-style staged impairment):
    random loss during the first slowstart rounds seeds WALI with a
    pathologically high p (App. B inverts a tiny x_recv), which is
    faithful protocol behavior but makes a short soak unreadable —
    real paths lose packets once rates approach capacity, not on the
    first packet. *)

val impairment :
  ?loss:float -> ?delay:float -> ?jitter:float -> ?warmup:float -> unit -> impairment

val create : Loop.t -> ?impair:impairment -> unit -> t
(** The fabric.  Default impairment: lossless, zero delay. *)

val create_udp : Loop.t -> t
(** Sockets.  Raises [Invalid_argument] on a turbo-mode loop.
    Transient send failures are retried up to 2 times with a 0.5 ms
    sleep between attempts.  A streak of 16 consecutive ENOBUFS
    failures opens a 50 ms load-shedding window in which every offered
    copy is dropped without a syscall — counted under
    [tfmcc_rt_send_error_total{kind="shed"}] — giving the kernel queue
    room to drain. *)

type error_class = Transient | Degraded | Fatal
(** The socket error taxonomy (DESIGN.md §15).  [Transient] (EAGAIN,
    EINTR, ENOBUFS, ENOMEM): momentary pressure, worth a bounded retry.
    [Degraded] (ECONNREFUSED, EHOSTUNREACH, EMSGSIZE, ...): this
    datagram or peer is lost but the socket still works — drop and move
    on, which is what UDP promises anyway.  [Fatal] (EBADF, ...): the
    socket itself is broken; the endpoint is marked dead, unwatched, and
    the {!set_on_fatal} hook fires so the owning session can be failed. *)

val classify : Unix.error -> error_class

val kind_of_error : Unix.error -> string
(** The [kind] label this error is counted under in
    [tfmcc_rt_send_error_total] / [tfmcc_rt_recv_error_total]. *)

val set_on_fatal : t -> (session:int -> endpoint:int -> exn -> unit) -> unit
(** Called (at most once per endpoint) when a fatal socket error kills
    an endpoint; the harness uses it to surface the owning session as
    [Failed] instead of letting it starve silently.  It never fires on
    the fabric. *)

val close : t -> unit
(** Closes every socket and unregisters the fds from the loop; a no-op
    on the fabric. *)

val endpoint : t -> session:int -> endpoint
(** Allocates an endpoint (fresh id) bound to the given session's
    multicast group.  It receives nothing until its deliver hook is set
    and — for group traffic — its environment's [join] runs.  On
    sockets it binds a socket and registers it with the loop, and raises
    [Unix.Unix_error] if the host forbids sockets. *)

val env : endpoint -> Tfmcc_core.Env.t
(** The {!Tfmcc_core.Env.t} handing this endpoint's IO to the transport.
    [split_rng] draws from the loop's master RNG in call order, like the
    simulator's engine. *)

val set_deliver : endpoint -> (size:int -> Tfmcc_core.Wire.msg -> unit) -> unit
(** Installs the inbound hook, replacing any earlier one.
    [size] is the datagram size in bytes: the [size] the sender passed,
    raised to the codec length when smaller (data frames keep the
    configured packet size, mirroring the simulated packet; reports
    arrive at their codec length).  The fabric carries only the
    sender's message and this size beside it, not a zero-padded
    datagram; a socket sends the zero-padded datagram. *)

val backend : endpoint Tfmcc_core.Session.backend
(** Endpoints of this transport: [env] is {!env}, and [on_data] /
    [on_report] install a deliver hook ({!set_deliver}) that passes the
    endpoint's data frames (with their size) or reports to the hook and
    ignores the other kind. *)

val endpoint_id : endpoint -> int

val loop : t -> Loop.t

val sessions : t -> int list
(** Session ids with at least one group (joined) member, sorted. *)

val members : t -> int -> int list
(** Joined endpoint ids of a session's group, sorted.  Receivers only:
    the sender unicasts into the group without joining it, so chaos
    churn drawn from this list never takes a sender down. *)

(* Chaos hooks, on both ways.  These are the primitives {!Chaos} plans
   compile to; they can also be driven directly (the harness uses
   [block] to partition a session's CLR).  In-flight frames are not
   recalled: a block/flap only affects frames offered after it lands. *)

val set_fabric_up : t -> bool -> unit
(** [false] drops every subsequently offered frame
    ([tfmcc_rt_frame_drop_total{reason="flap"}]) until set back. *)

val fabric_up : t -> bool

val block : t -> int -> unit
(** Partitions endpoint [id]: frames from or to it are dropped
    ([reason="partition"]).  Refcounted — overlapping chaos windows may
    block the same endpoint more than once, and it only resurfaces when
    every window has called {!unblock}. *)

val unblock : t -> int -> unit

val is_blocked : t -> int -> bool

val blocked_count : t -> int
(** Endpoints currently blocked (distinct ids, not refcounts). *)

(* Transport-wide counters, each also exported as a [tfmcc_rt_*]
   metric.  On the fabric every copy counted sent ends as exactly one
   of: still in flight, delivered, lost, a partition or flap drop, a
   decode error, or a copy to an endpoint without a deliver hook.  On
   sockets it may also end as a shed drop or a send error, or be
   dropped by the kernel unseen. *)

val frames_sent : t -> int
(** Copies offered: frames times destinations (a group send to [n]
    members counts [n]).  On sockets, a copy to an unknown id or
    between dead sockets is not offered. *)

val frames_delivered : t -> int
(** Copies that passed the codec and were handed to a deliver hook. *)

val frames_lost : t -> int
(** Dropped by the fabric's loss draw; always 0 on sockets. *)

val encode_drops : t -> int
(** Frames (not copies) that failed to encode. *)

val decode_errors : t -> int
(** Copies that reached a deliver hook and failed decode (on the
    fabric: {!Tfmcc_core.Wire.frame_valid}). *)

val partition_drops : t -> int
(** Copies dropped because an endpoint on the path was blocked. *)

val flap_drops : t -> int
(** Copies dropped while the transport was down. *)

val send_errors : t -> int
(** Sockets: copies the kernel refused after retries, every kind but
    shedding; 0 on the fabric.  Counted per kind in
    [tfmcc_rt_send_error_total{kind}], whose [kind="shed"] member is
    {!send_shed}, so that family sums to [send_errors + send_shed];
    the first occurrence per (endpoint, kind) is journaled under
    ["rt.udp"]. *)

val send_shed : t -> int
(** Sockets: copies dropped inside a load-shedding window, disjoint
    from {!send_errors}; 0 on the fabric. *)
