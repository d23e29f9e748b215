(* Named only as [Outer.M.v], where [Outer.M] includes this module. *)
val v : int
