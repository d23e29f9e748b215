(** Index of every reproduced figure: one entry per figure of the paper,
    with a uniform run signature.  This is what both the benchmark
    harness and the CLI iterate over.  A run is a pure function of
    (mode, seed); {!Sweep.run_cell} runs one on a fresh sink. *)

type experiment = {
  id : string;  (** e.g. "fig09" *)
  figure : string;  (** e.g. "Figure 9" *)
  title : string;
  run : mode:Scenario.mode -> seed:int -> Series.t list;
}

val all : experiment list
(** In figure order. *)

val find : string -> experiment option
(** Lookup by id (case-insensitive) in {!all}. *)
