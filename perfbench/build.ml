(* The one session builder behind every mirror run, generic over the
   backend that hosts the endpoints: the simulator (an endpoint is a
   topology node) or the rt loopback fabric (an endpoint is a fabric
   endpoint).  It wires a TFMCC session exactly as the library's own
   builders do ([Netsim_env.Session.create] and [Rt.Harness]'s per-session
   build): same construction order, same RNG splits, same per-packet
   dispatch, so a mirror reproduces the entry point's run event for
   event.  Given a tracer it also wraps every endpoint's environment and
   deliver hook in spans. *)

open Tfmcc_core

type 'ep backend = {
  env : 'ep -> Env.t;
  on_data : 'ep -> (size:int -> Wire.data -> unit) -> unit;
  on_report : 'ep -> (Wire.report -> unit) -> unit;
}

(* Node handlers dispatch on the payload constructor, like
   [Netsim_env]'s own attaches: no [Wire.msg] box per packet. *)
let sim topo ~session =
  {
    env = Netsim_env.env topo ~session;
    on_data =
      (fun node f ->
        Netsim.Node.attach node (fun p ->
            match p.Netsim.Packet.payload with
            | Netsim_env.Data d -> f ~size:p.Netsim.Packet.size d
            | _ -> ()));
    on_report =
      (fun node f ->
        Netsim.Node.attach node (fun p ->
            match p.Netsim.Packet.payload with
            | Netsim_env.Report r -> f r
            | _ -> ()));
  }

let rt =
  {
    env = Rt.Net.env;
    on_data =
      (fun ep f ->
        Rt.Net.set_deliver ep (fun ~size msg ->
            match msg with Wire.Data d -> f ~size d | Wire.Report _ -> ()));
    on_report =
      (fun ep f ->
        Rt.Net.set_deliver ep (fun ~size:_ msg ->
            match msg with Wire.Report r -> f r | Wire.Data _ -> ()));
  }

let traced_data tracer layer f =
  match tracer with
  | None -> f
  | Some tr ->
      fun ~size d ->
        Span.enter tr layer;
        (match f ~size d with
        | () -> ()
        | exception e ->
            Span.leave tr;
            raise e);
        Span.leave tr

let traced_report tracer layer f =
  match tracer with
  | None -> f
  | Some tr ->
      fun r ->
        Span.enter tr layer;
        (match f r with
        | () -> ()
        | exception e ->
            Span.leave tr;
            raise e);
        Span.leave tr

let session backend ?tracer ~cfg ~session ~sender ~receivers () =
  let env layer ep =
    match tracer with
    | None -> backend.env ep
    | Some tr -> Span.env tr ~layer (backend.env ep)
  in
  let s =
    Session.create ~sender_env:(env Span.sender sender) ~cfg ~session
      ~receiver_envs:(List.map (env Span.receiver) receivers)
      ()
  in
  backend.on_report sender
    (traced_report tracer Span.sender (Sender.deliver_report (Session.sender s)));
  List.iter2
    (fun ep r ->
      backend.on_data ep (traced_data tracer Span.receiver (Receiver.deliver_data r)))
    receivers (Session.receivers s);
  s
