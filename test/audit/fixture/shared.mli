(* Two functions sharing the label [?x]; the caller passes it to [f]
   only, so a tool matching labels by name misses [g]. *)
val f : ?x:int -> unit -> int
val g : ?x:int -> unit -> int

(* Every call omits [?retries]: a tool counting the [None] the compiler
   fills in as a pass misses it. *)
val run : ?retries:int -> unit -> int

(* Named by no other unit. *)
val unused : int

(* Named only by the probe, which stands for a test: the pass without
   the probe lists [hooked] in hooks.txt, and reports [test_only]
   (unlisted) and [untested] (listed without a test case). *)
val hooked : int
val test_only : int
val untested : int
