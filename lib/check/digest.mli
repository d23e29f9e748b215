(** FNV-1a 64-bit streaming digest.

    Used by the golden-trace regression machinery to fingerprint
    experiment output (series CSV + observability JSON) with a stable,
    dependency-free hash.  Not cryptographic — it only has to be
    deterministic across runs, platforms and [-j N] parallelism, and
    sensitive enough that any behavioural drift flips the digest. *)

type t

val create : unit -> t
(** Fresh digest at the FNV-1a offset basis. *)

val add_string : t -> string -> unit
(** Folds every byte of the string into the running hash. *)

val add_char : t -> char -> unit

val to_hex : t -> string
(** Current hash as 16 lowercase hex digits. *)
