type t = {
  cfg : Config.t;
  session : int;
  sender : Sender.t;
  sender_id : int;
  mutable receivers : Receiver.t list;
}

let create ~sender_env ?(cfg = Config.default) ~session ~receiver_envs
    ?clock_offsets () =
  let offsets =
    match clock_offsets with
    | None -> List.map (fun _ -> 0.) receiver_envs
    | Some l ->
        if List.length l <> List.length receiver_envs then
          invalid_arg "Session.create: clock_offsets length mismatch";
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

let start ?(join_receivers = true) t ~at =
  if join_receivers then List.iter Receiver.join t.receivers;
  Sender.start t.sender ~at

let stop t = Sender.stop t.sender

let sender t = t.sender

let receivers t = t.receivers

let receiver t ~node_id =
  List.find (fun r -> Receiver.node_id r = node_id) t.receivers

let add_receiver t ~env ~join_now () =
  let r =
    Receiver.create ~env ~cfg:t.cfg ~session:t.session ~sender:t.sender_id ()
  in
  t.receivers <- r :: t.receivers;
  if join_now then Receiver.join r;
  r

let session_id t = t.session

let receivers_with_rtt t =
  List.length (List.filter Receiver.has_rtt_measurement t.receivers)
