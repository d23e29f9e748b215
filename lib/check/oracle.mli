(** Differential-oracle helpers (DESIGN.md §11).

    The oracles themselves live in [lib/experiments] (they build
    scenarios); this module holds the comparison arithmetic they and the
    property tests share. *)

val relative_error : expected:float -> actual:float -> float
(** [|actual − expected| / max |expected| ε]; 0 when both are 0. *)

val equation_gap :
  b:float -> s:int -> rtt:float -> p:float -> rate:float -> float
(** Relative gap between an observed sending rate and the Padhye
    throughput {!Tcp_model.Padhye.throughput} for the given loss-event
    rate and RTT — the sender-side equation-consistency oracle.
    [infinity] when the equation inputs are degenerate (p ≤ 0 or
    non-finite terms). *)
