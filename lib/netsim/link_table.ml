(* Struct-of-arrays hot state for the links of one engine.

   The link transmit path touches two fields per packet — the busy flag
   and the cumulative busy-time accumulator.  Keeping them in flat
   engine-owned arrays (one byte / one unboxed double per link, indexed
   by the link's slot) instead of scattered per-link records keeps the
   whole fleet's hot state in a couple of cache lines and makes the
   accumulation a plain store: a [mutable float] in the mixed link
   record would box a fresh float on every transmission.  The increment
   arrives in the link's cell, not as a float argument, which would be
   boxed at the call just the same.

   Owned by the engine; never shared across domains (each sweep domain
   builds its own engines, DESIGN.md §9/§14). *)

type t = {
  mutable busy : Bytes.t;  (* '\000' = idle, '\001' = transmitting *)
  mutable busy_time : float array;  (* cumulative tx seconds *)
  mutable n : int;
}

let create () = { busy = Bytes.make 16 '\000'; busy_time = Array.make 16 0.; n = 0 }

let alloc t =
  if t.n = Bytes.length t.busy then begin
    let busy = Bytes.make (2 * t.n) '\000' in
    Bytes.blit t.busy 0 busy 0 t.n;
    let busy_time = Array.make (2 * t.n) 0. in
    Array.blit t.busy_time 0 busy_time 0 t.n;
    t.busy <- busy;
    t.busy_time <- busy_time
  end;
  let slot = t.n in
  t.n <- t.n + 1;
  slot

let length t = t.n

(* Slots are handed out by [alloc] and held privately by links, so the
   index is in range by construction. *)

let busy t i = Bytes.unsafe_get t.busy i <> '\000'

let set_busy t i b =
  Bytes.unsafe_set t.busy i (if b then '\001' else '\000')

let busy_time t i = Array.unsafe_get t.busy_time i

let add_busy_time t i (dt : Event_heap.time_cell) =
  Array.unsafe_set t.busy_time i
    (Array.unsafe_get t.busy_time i +. dt.Event_heap.cell_time)
