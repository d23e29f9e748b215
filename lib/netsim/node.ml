type t = {
  id : int;
  mutable handlers : (Packet.t -> unit) list;  (* attachment order *)
  mutable hook : (Packet.t -> unit) option;
}

let create ~id = { id; handlers = []; hook = None }

let id t = t.id

(* Appending keeps the list in attachment order, so the per-packet
   delivery below iterates it directly instead of reversing a copy on
   every delivery (attach is rare, deliver is the hot path). *)
let attach t h = t.handlers <- t.handlers @ [ h ]

(* A direct loop rather than [List.iter (fun h -> h p)], which would
   allocate a closure over [p] for every delivered packet. *)
let rec deliver_each p = function
  | [] -> ()
  | h :: tl ->
      h p;
      deliver_each p tl

let deliver_local t p = deliver_each p t.handlers

let receive t p =
  match t.hook with Some hook -> hook p | None -> deliver_local t p

let set_receive_hook t hook = t.hook <- Some hook
