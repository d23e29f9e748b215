(** Struct-of-arrays busy/busy-time state for every link of one engine.

    Links allocate a slot at creation and index the engine's table on
    the transmit path; the flat layout keeps all links' hot scalars
    contiguous and the busy-time accumulation unboxed.  One table per
    engine; never shared across domains. *)

type t

val create : unit -> t

val alloc : t -> int
(** A fresh slot (grows the arrays as needed). *)

val length : t -> int

val busy : t -> int -> bool

val set_busy : t -> int -> bool -> unit

val busy_time : t -> int -> float

val add_busy_time : t -> int -> Event_heap.time_cell -> unit
(** [add_busy_time t slot dt] adds [dt.cell_time] seconds to the slot's
    busy time.  The increment comes in a cell so the call boxes no
    float. *)
