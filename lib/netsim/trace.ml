type kind = Tx | Drop_queue | Drop_loss | Drop_ttl | Deliver

type event = {
  time : float;
  kind : kind;
  link_src : int;
  link_dst : int;
  uid : int;
  flow : int;
  size : int;
}

(* Events the ring retains; older ones rotate out. *)
let capacity = 100_000

type t = {
  buffer : event option array;
  mutable next : int;  (* write position *)
  mutable recorded : int;
}

let create () = { buffer = Array.make capacity None; next = 0; recorded = 0 }

let record t ev =
  t.buffer.(t.next) <- Some ev;
  t.next <- (t.next + 1) mod capacity;
  t.recorded <- t.recorded + 1

let attach t link =
  let link_src = Node.id (Link.src link) and link_dst = Node.id (Link.dst link) in
  Link.set_tracer link (fun ~time ~kind:k (p : Packet.t) ->
      let kind =
        match k with
        | `Tx -> Tx
        | `Drop_queue -> Drop_queue
        | `Drop_loss -> Drop_loss
        | `Drop_ttl -> Drop_ttl
        | `Deliver -> Deliver
      in
      record t
        { time; kind; link_src; link_dst; uid = p.uid; flow = p.flow; size = p.size })

let total_recorded t = t.recorded

let kind_char = function
  | Tx -> '+'
  | Drop_queue -> 'd'
  | Drop_loss -> 'x'
  | Drop_ttl -> 't'
  | Deliver -> 'r'

let pp_event ppf e =
  Format.fprintf ppf "%c %.6f %d %d %d %d %d" (kind_char e.kind) e.time e.link_src
    e.link_dst e.flow e.size e.uid

let to_text t =
  let buf = Buffer.create 4096 in
  (* Oldest first: from [next] around the ring. *)
  for i = 0 to capacity - 1 do
    match t.buffer.((t.next + i) mod capacity) with
    | Some e ->
        Buffer.add_string buf (Format.asprintf "%a" pp_event e);
        Buffer.add_char buf '\n'
    | None -> ()
  done;
  Buffer.contents buf
