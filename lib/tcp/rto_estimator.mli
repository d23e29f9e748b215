(** Jacobson/Karels retransmission-timeout estimation with exponential
    backoff (as in BSD TCP / ns-2). *)

type t

val create : unit -> t
(** The timeout is 3 s before the first sample, and always between 1 s
    (RFC 2988) and 60 s. *)

val observe : t -> float -> unit
(** Feed one RTT sample (seconds).  First sample initializes
    srtt = sample, rttvar = sample/2; later samples use the standard
    EWMAs (gains 1/8 and 1/4).  Resets backoff. *)

val rto : t -> float
(** Current timeout: clamp(srtt + 4·rttvar) × 2^backoff, clamped to
    [1 s, 60 s]. *)

val backoff : t -> unit
(** Doubles the timeout (cap 2^6). *)
