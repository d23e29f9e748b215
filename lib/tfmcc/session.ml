type 'ep backend = {
  env : 'ep -> Env.t;
  on_data : 'ep -> (size:int -> Wire.data -> unit) -> unit;
  on_report : 'ep -> (Wire.report -> unit) -> unit;
}

type t = {
  cfg : Config.t;
  session : int;
  sender : Sender.t;
  sender_id : int;
  mutable receivers : Receiver.t list;
}

let make ~sender_env ~cfg ~session ~receiver_envs ~clock_offsets =
  let offsets =
    match clock_offsets with
    | None -> List.map (fun _ -> 0.) receiver_envs
    | Some l ->
        if List.length l <> List.length receiver_envs then
          invalid_arg "Session.build: clock_offsets length mismatch";
        l
  in
  let sender = Sender.create ~env:sender_env ~cfg ~session () in
  let sender_id = sender_env.Env.id in
  let receivers =
    List.map2
      (fun env clock_offset ->
        Receiver.create ~env ~cfg ~session ~sender:sender_id ~clock_offset ())
      receiver_envs offsets
  in
  { cfg; session; sender; sender_id; receivers }

let create ~sender_env ?(cfg = Config.default) ~session ~receiver_envs () =
  make ~sender_env ~cfg ~session ~receiver_envs ~clock_offsets:None

let build b ?(cfg = Config.default) ~session ~sender ~receivers ?clock_offsets ()
    =
  let sender_env = b.env sender in
  let receiver_envs = List.map b.env receivers in
  let t = make ~sender_env ~cfg ~session ~receiver_envs ~clock_offsets in
  b.on_report sender (Sender.deliver_report t.sender);
  List.iter2 (fun ep r -> b.on_data ep (Receiver.deliver_data r)) receivers t.receivers;
  t

let start ?(join_receivers = true) t ~at =
  if join_receivers then List.iter Receiver.join t.receivers;
  Sender.start t.sender ~at

let stop t = Sender.stop t.sender

let sender t = t.sender

let receivers t = t.receivers

let receiver t ~node_id =
  List.find (fun r -> Receiver.node_id r = node_id) t.receivers

let add_receiver b t ep ~join_now =
  let r =
    Receiver.create ~env:(b.env ep) ~cfg:t.cfg ~session:t.session ~sender:t.sender_id
      ()
  in
  b.on_data ep (Receiver.deliver_data r);
  t.receivers <- r :: t.receivers;
  if join_now then Receiver.join r;
  r

let receivers_with_rtt t =
  List.length (List.filter Receiver.has_rtt_measurement t.receivers)
