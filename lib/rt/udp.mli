(** Real-UDP transport for the real-time runtime.

    Each endpoint owns a nonblocking UDP socket bound to an ephemeral
    port on 127.0.0.1; the loop's [select] watches every socket and
    drains it on readability.  Multicast is emulated by unicast fan-out
    over the per-session membership registry (the fabric knows every
    member's bound address), which keeps the transport runnable in
    plain CI containers — no IGMP or routable multicast needed.

    This is the "prove it's real" transport: frames cross the kernel.
    It pays one file descriptor per endpoint, so thousand-session soaks
    belong on {!Net}; this one is for small live runs
    ([tfmcc-sim loopback --udp]).  Realtime loop mode only — virtual
    time outruns any socket. *)

type t

type endpoint

type error_class = Transient | Degraded | Fatal
(** Transport-error taxonomy (DESIGN.md §15).  [Transient] (EAGAIN,
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

val create : Loop.t -> t
(** Raises [Invalid_argument] on a turbo-mode loop.  Transient send
    failures are retried up to 2 times with a 0.5 ms sleep between
    attempts.  A streak of 16 consecutive ENOBUFS failures opens a
    50 ms load-shedding window in which every offered frame is dropped
    without a syscall — counted under
    [tfmcc_rt_send_error_total{kind="shed"}] — giving the kernel queue
    room to drain. *)

val set_on_fatal : t -> (session:int -> endpoint:int -> exn -> unit) -> unit
(** Called (at most once per endpoint) when a fatal socket error kills
    an endpoint; the harness uses it to surface the owning session as
    [Failed] instead of letting it starve silently. *)

val endpoint : t -> session:int -> endpoint
(** Binds a socket and registers it with the loop.  Raises
    [Unix.Unix_error] if the container forbids sockets. *)

val env : endpoint -> Tfmcc_core.Env.t

val set_deliver : endpoint -> (size:int -> Tfmcc_core.Wire.msg -> unit) -> unit

val endpoint_id : endpoint -> int

val endpoint_dead : endpoint -> bool
(** True once a fatal socket error has retired this endpoint. *)

val close : t -> unit
(** Closes every socket and unregisters the fds from the loop. *)

val frames_sent : t -> int

val frames_delivered : t -> int

val send_errors : t -> int
(** Frames dropped on the send path after retries (every kind, shedding
    included); per-kind breakdown in [tfmcc_rt_send_error_total{kind}],
    first occurrence per (endpoint, kind) journaled under ["rt.udp"]. *)

val send_retries : t -> int

val send_shed : t -> int
(** Frames dropped inside a load-shedding window (subset of
    {!send_errors}). *)

val recv_errors : t -> int
(** [recvfrom] failures other than the EAGAIN/EINTR fast path. *)

val decode_errors : t -> int
