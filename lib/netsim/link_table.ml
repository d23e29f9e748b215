(* Struct-of-arrays hot state for the links of one engine.

   The link transmit path reads and writes the busy flag per packet.
   Keeping the flags in one flat engine-owned byte array (one byte per
   link, indexed by the link's slot) instead of scattered per-link
   records keeps the whole fleet's flags in a couple of cache lines.

   Owned by the engine; never shared across domains (each sweep domain
   builds its own engines, DESIGN.md §9/§14). *)

type t = {
  mutable busy : Bytes.t;  (* '\000' = idle, '\001' = transmitting *)
  mutable n : int;
}

let create () = { busy = Bytes.make 16 '\000'; n = 0 }

let alloc t =
  if t.n = Bytes.length t.busy then begin
    let busy = Bytes.make (2 * t.n) '\000' in
    Bytes.blit t.busy 0 busy 0 t.n;
    t.busy <- busy
  end;
  let slot = t.n in
  t.n <- t.n + 1;
  slot

(* Slots are handed out by [alloc] and held privately by links, so the
   index is in range by construction. *)

let busy t i = Bytes.unsafe_get t.busy i <> '\000'

let set_busy t i b =
  Bytes.unsafe_set t.busy i (if b then '\001' else '\000')
