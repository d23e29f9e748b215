(** Convenience wrapper: one TFMCC sender plus its receiver set, with
    aggregate views used by the experiments.  Each endpoint brings its
    own {!Env.t} (its node id, clock, timers and datagram hook), so the
    same wrapper drives the simulator ([Netsim_env.session]) and the
    real-time runtime ([Rt]). *)

type t

val create :
  sender_env:Env.t ->
  ?cfg:Config.t ->
  session:int ->
  receiver_envs:Env.t list ->
  ?clock_offsets:float list ->
  unit ->
  t
(** Builds the sender and one receiver per environment (in list order —
    environments' RNG streams are split in that order).  Receivers are
    created but not joined; {!start} joins them all.  [clock_offsets],
    when given, must match [receiver_envs] in length. *)

val start : ?join_receivers:bool -> t -> at:float -> unit
(** Starts the sender at [at]; joins every receiver first unless
    [join_receivers] is false (experiments that stage joins manually). *)

val stop : t -> unit

val sender : t -> Sender.t

val receivers : t -> Receiver.t list

val receiver : t -> node_id:int -> Receiver.t
(** Raises [Not_found] for unknown ids. *)

val add_receiver :
  t -> env:Env.t -> join_now:bool -> unit -> Receiver.t
(** Late join (paper §4.5). *)

val session_id : t -> int
(** The multicast session id supplied at creation (environment adapters
    need it to build further receiver environments for late joins). *)

val receivers_with_rtt : t -> int
(** How many receivers hold a real RTT measurement (Fig. 12's metric). *)
