(** Struct-of-arrays busy flags for every link of one engine.

    Links allocate a slot at creation and index the engine's table on
    the transmit path; the flat layout keeps all links' flags
    contiguous.  One table per engine; never shared across domains. *)

type t

val create : unit -> t

val alloc : t -> int
(** A fresh slot (grows the table as needed). *)

val busy : t -> int -> bool

val set_busy : t -> int -> bool -> unit
