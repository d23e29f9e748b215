(* Called only through a local alias of this module. *)
val h : unit -> int
