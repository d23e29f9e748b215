(** The sender's pending echoes (§2.4.2): at most one per receiver, in
    priority order.  A data packet echoes the head. *)

type entry = {
  pe_rx : int;
  pe_ts : float;  (** receiver timestamp from the report *)
  pe_arrival : float;  (** sender clock when the report arrived *)
  pe_class : int;  (** priority class, lower = more urgent *)
  pe_rate : float;  (** tie-break: lowest reported rate first *)
}

val insert : entry list -> entry -> entry list
(** [insert l e] queues receiver [e.pe_rx]'s newest echo in one pass
    over [l], a list sorted by (class, rate) with at most one entry per
    receiver.  It drops that receiver's old entry and puts [e] ahead of
    its (class, rate) equals: the list a stable sort of [e] consed onto
    [l] without the old entry gives.  Only the cells ahead of [e] and
    of the old entry are copied; the tail is shared. *)
