(** Convenience wrapper: one TFMCC sender plus its receiver set, with
    aggregate views used by the experiments.  Each endpoint brings its
    own {!Env.t} (its node id, clock, timers and datagram hook), so the
    same wrapper drives the simulator ([Netsim_env.backend]) and the
    real-time runtime ([Rt.Net.backend]). *)

type 'ep backend = {
  env : 'ep -> Env.t;  (** the endpoint's environment *)
  on_data : 'ep -> (size:int -> Wire.data -> unit) -> unit;
      (** hooks the endpoint's inbound data packets; [size] is the
          on-the-wire size in bytes *)
  on_report : 'ep -> (Wire.report -> unit) -> unit;
      (** hooks the endpoint's inbound receiver reports *)
}
(** How a backend hosts a TFMCC endpoint ['ep] (a simulator node, a
    real-time fabric or socket endpoint).  Every role hears one message
    kind: the sender and aggregators reports, receivers and adversaries
    data.  An endpoint gets one hook; a hook is a closure built once, so
    a delivery allocates nothing for the wiring. *)

type t

val create :
  sender_env:Env.t ->
  ?cfg:Config.t ->
  session:int ->
  receiver_envs:Env.t list ->
  unit ->
  t
(** Builds the sender and one receiver per environment (in list order —
    environments' RNG streams are split in that order), without hooking
    any inbound traffic.  Receivers are created but not joined; {!start}
    joins them all. *)

val build :
  'ep backend ->
  ?cfg:Config.t ->
  session:int ->
  sender:'ep ->
  receivers:'ep list ->
  ?clock_offsets:float list ->
  unit ->
  t
(** {!create} over the backend's environments of [sender] and
    [receivers], then hooks the sender's reports ({!Sender.deliver_report})
    and each receiver's data ({!Receiver.deliver_data}), in list order.
    [clock_offsets], when given, must match [receivers] in length and
    shifts each receiver's clock (§2.4.3). *)

val start : ?join_receivers:bool -> t -> at:float -> unit
(** Starts the sender at [at]; joins every receiver first unless
    [join_receivers] is false (experiments that stage joins manually). *)

val stop : t -> unit

val sender : t -> Sender.t

val receivers : t -> Receiver.t list

val receiver : t -> node_id:int -> Receiver.t
(** Raises [Not_found] for unknown ids. *)

val add_receiver : 'ep backend -> t -> 'ep -> join_now:bool -> Receiver.t
(** Late join (paper §4.5): a receiver on the backend's endpoint, its
    data hooked, joined at once if [join_now]. *)

val receivers_with_rtt : t -> int
(** How many receivers hold a real RTT measurement (Fig. 12's metric). *)
