(* Called only bare, inside the struct of [Outer] that includes this
   module. *)
val b : unit -> int
