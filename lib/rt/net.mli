(** In-process loopback datagram fabric.

    The scalable transport for the real-time runtime: endpoints exchange
    real codec frames over an in-memory switch instead of kernel
    sockets, so one process can carry thousands of concurrent sessions
    without file-descriptor limits (see {!Udp} for the socket-backed
    sibling).  Each send encodes its message into the fabric's one
    scratch buffer ({!Tfmcc_core.Wire.encode_report_into} /
    [encode_data_into]) and decodes it from there once
    ({!Tfmcc_core.Wire.decode}); every copy then carries that one
    decoded message, which is immutable, so receivers share it as the
    simulator's receivers share a packet.  Multicast is modelled as
    per-session group membership: [To_group] fans a frame out to every
    joined member except the sender, [To_node] unicasts.

    A netem-style impairment shim sits on every delivery: independent
    Bernoulli loss, fixed base delay, and uniform jitter, drawn from one
    RNG stream split off the loop's master seed — so a turbo-mode run
    is reproducible end to end.

    Frames that fail to encode (non-finite field escaping the protocol
    core) are dropped and counted under [tfmcc_rt_frame_drop_total
    {reason="encode"}] rather than crashing the loop.  A frame that
    encodes but fails decode still sends every copy through the shim
    and the loop; each copy that lands on an endpoint with a deliver
    hook counts [reason="decode"], as each UDP receiver would reject
    its own datagram.

    The fabric also exposes chaos hooks (driven by {!Chaos} plans,
    DESIGN.md §15): the whole fabric can flap down/up, individual
    endpoints can be blocked (partitioned/churned — frames to {e or}
    from a blocked endpoint are dropped at send time, counted under
    [reason="partition"]; fabric-down drops count [reason="flap"]).
    The impairment profile is fixed at {!create}.  All chaos mutations
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
(** Default impairment: lossless, zero delay. *)

val endpoint : t -> session:int -> endpoint
(** Allocates an endpoint (fresh id) bound to the given session's
    multicast group.  It receives nothing until its deliver hook is set
    and — for group traffic — its environment's [join] runs. *)

val env : endpoint -> Tfmcc_core.Env.t
(** The {!Tfmcc_core.Env.t} handing this endpoint's IO to the fabric.
    [split_rng] draws from the loop's master RNG in call order, like the
    simulator's engine. *)

val set_deliver : endpoint -> (size:int -> Tfmcc_core.Wire.msg -> unit) -> unit
(** Installs the inbound hook ([Sender.deliver] / [Receiver.deliver]).
    [size] is the datagram size in bytes: the [size] the sender passed,
    raised to the codec length when smaller (data frames keep the
    configured packet size, mirroring the simulated packet; reports
    arrive at their codec length).  The fabric carries only the decoded
    message and this size beside it, not a zero-padded datagram. *)

val endpoint_id : endpoint -> int

val loop : t -> Loop.t

val sessions : t -> int list
(** Session ids with at least one group (joined) member, sorted. *)

val members : t -> int -> int list
(** Joined endpoint ids of a session's group, sorted.  Receivers only:
    the sender unicasts into the group without joining it, so chaos
    churn drawn from this list never takes a sender down. *)

(* Chaos hooks.  These are the primitives {!Chaos} plans compile to;
   they can also be driven directly (the harness uses [block] to
   partition a session's CLR).  In-flight frames are not recalled:
   a block/flap only affects frames offered after it lands. *)

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

(* Fabric-wide counters (also exported as [tfmcc_rt_*] metrics). *)

val frames_sent : t -> int
(** Frames offered to the fabric times destinations (a group send to
    [n] members counts [n]). *)

val frames_delivered : t -> int

val frames_lost : t -> int
(** Dropped by the impairment shim's loss draw. *)

val encode_drops : t -> int

val decode_errors : t -> int

val partition_drops : t -> int
(** Frames dropped because an endpoint on the path was blocked. *)

val flap_drops : t -> int
(** Frames dropped while the fabric was down. *)
