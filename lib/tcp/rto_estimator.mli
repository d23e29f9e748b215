(** Jacobson/Karels retransmission-timeout estimation with exponential
    backoff (as in BSD TCP / ns-2). *)

type t

val create : ?min_rto:float -> unit -> t
(** The timeout is 3 s before the first sample and never above 60 s;
    [min_rto] (default 1 s, RFC 2988) is its floor and must lie in
    (0, 60]. *)

val observe : t -> float -> unit
(** Feed one RTT sample (seconds).  First sample initializes
    srtt = sample, rttvar = sample/2; later samples use the standard
    EWMAs (gains 1/8 and 1/4).  Resets backoff. *)

val rto : t -> float
(** Current timeout: clamp(srtt + 4·rttvar) × 2^backoff, clamped to
    [min_rto, max_rto]. *)

val backoff : t -> unit
(** Doubles the timeout (cap 2^6). *)

val reset_backoff : t -> unit

val srtt : t -> float option
(** [None] before the first sample. *)

val rttvar : t -> float option
