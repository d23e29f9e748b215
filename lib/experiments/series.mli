(** Experiment output: a named table of x versus one or more y columns —
    exactly the data behind one paper figure (or one panel of it). *)

type t = {
  title : string;  (** e.g. "Fig. 9: 1 TFMCC + 15 TCP, 8 Mbit/s bottleneck" *)
  xlabel : string;
  ylabels : string list;  (** one per y column *)
  rows : (float * float list) list;  (** (x, ys); ys length = ylabels *)
  notes : string list;  (** paper-vs-measured commentary *)
}

val make :
  title:string ->
  xlabel:string ->
  ylabels:string list ->
  ?notes:string list ->
  (float * float list) list ->
  t
(** Validates that every row has as many ys as there are labels. *)

val pp : Format.formatter -> t -> unit
(** Aligned, human-readable table. *)

val to_csv : t -> string

val to_json : t -> Obs.Json.t
(** [{"title", "xlabel", "ylabels", "rows" (x then ys per row), "notes"}];
    NaN/infinite cells serialize as JSON [null]. *)

val render_ascii : t -> col:int -> string
(** A terminal plot of one y column against x: 12 text rows by 72
    columns, with a y-axis scale.  NaN points are skipped. *)
