(** Index of every reproduced figure: one entry per figure of the paper,
    with a uniform run signature.  This is what both the benchmark
    harness and the CLI iterate over. *)

type experiment = {
  id : string;  (** e.g. "fig09" *)
  figure : string;  (** e.g. "Figure 9" *)
  title : string;
  run : mode:Scenario.mode -> seed:int -> Series.t list;
}

val all : experiment list
(** In figure order.  Each [run] first refills the calling domain's
    packet arena ({!Netsim.Packet.Pool.reclaim}), so what an experiment
    allocates does not depend on what ran before it in that domain. *)

val hidden : experiment list
(** Fault-injecting supervisor probes ({!Fault_inject}): excluded from
    {!all} (they fail by design, so default sweeps, golden digests and
    the listing must not include them) but resolvable by {!find} so
    tests and CI can sweep them explicitly. *)

val find : string -> experiment option
(** Lookup by id (case-insensitive), over {!all} and {!hidden}. *)

val ids : unit -> string list
