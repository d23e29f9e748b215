module M : sig
  val v : int
end

module N : sig
  val c : unit -> int
end
