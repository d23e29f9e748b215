(* The heap is stored as two parallel arrays: [times] is a flat float
   array (unboxed storage, no per-key float box) holding the sort keys,
   [events] holds the payload records (callback, tie-break seq, cancel
   flag).  Sifts move a hole instead of swapping, and the engine-facing
   dispatch step ([step]) allocates nothing per event. *)

(* An event is either a plain closure ([callback]) or a packet callback
   pair ([pcb] applied to [parg]) — the latter lets the link layer
   schedule a packet delivery with one preallocated per-link function
   instead of a fresh closure per in-flight packet.  [parg] doubles as
   the discriminator: the [Packet.dummy] sentinel means closure form.

   Records handed out by [add] are permanent (the caller holds a
   [handle] and may [cancel] it at any point after firing), but most of
   the engine's traffic — link transmissions and arrivals — never keeps
   a handle; those go through [add_unit]/[add_pkt].  All records are
   freshly allocated with initializing stores.  A freelist of recycled
   records was tried here and measured ~25 ns/event SLOWER than minor
   allocation: parked records promote to the major heap, so every field
   store on reuse goes through the [caml_modify] write barrier (young
   closure into old record = remembered-set traffic), which costs far
   more than the bump allocation it saves.  Don't reintroduce it. *)
type event = {
  mutable seq : int;
  callback : unit -> unit;
  pcb : Packet.t -> unit;
  parg : Packet.t;
  mutable cancelled : bool;
}

type handle = event

type t = {
  mutable times : float array;
  mutable events : event array;
  mutable len : int;
  mutable live : int;
  mutable next_seq : int;
}

let ignore_pcb (_ : Packet.t) = ()

let dummy_event =
  {
    seq = -1;
    callback = ignore;
    pcb = ignore_pcb;
    parg = Packet.dummy;
    cancelled = true;
  }

(* All-float cell (raw double storage): [step] writes the popped time
   here so the caller's clock update is a plain store. *)
type time_cell = { mutable cell_time : float }

let initial_capacity = 64

let create () =
  {
    times = Array.make initial_capacity 0.;
    events = Array.make initial_capacity dummy_event;
    len = 0;
    live = 0;
    next_seq = 0;
  }

(* The sift loops keep every float comparison inside one function body:
   without flambda a float passed to a helper (even a tiny [before]
   predicate) is boxed at each call, which costs an allocation per heap
   level per operation — so the comparisons are hand-inlined and the
   keys stay in FP registers.  Indices are bounded by [t.len] (a local
   invariant of each loop), so array accesses use the unsafe
   primitives. *)

(* Move the hole at [i] up until (time, seq) fits, then drop the event in. *)
let sift_up t i time ev =
  let times = t.times and events = t.events in
  let seq = ev.seq in
  let i = ref i in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    let tp = Array.unsafe_get times parent in
    if time < tp || (time = tp && seq < (Array.unsafe_get events parent).seq)
    then begin
      Array.unsafe_set times !i tp;
      Array.unsafe_set events !i (Array.unsafe_get events parent);
      i := parent
    end
    else continue := false
  done;
  Array.unsafe_set times !i time;
  Array.unsafe_set events !i ev

(* Refill the hole at the root with the element at index [t.len] (the
   old last element, already outside the tree), sifting it down.  The
   key is loaded here rather than passed as an argument so it is never
   boxed. *)
let sift_down_root t =
  let times = t.times and events = t.events in
  let len = t.len in
  let time = Array.unsafe_get times len in
  let ev = Array.unsafe_get events len in
  Array.unsafe_set events len dummy_event;
  let seq = ev.seq in
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= len then continue := false
    else begin
      let r = l + 1 in
      let child =
        if r >= len then l
        else begin
          let tl = Array.unsafe_get times l and tr = Array.unsafe_get times r in
          if tr < tl then r
          else if tl < tr then l
          else if
            (Array.unsafe_get events r).seq < (Array.unsafe_get events l).seq
          then r
          else l
        end
      in
      let tc = Array.unsafe_get times child in
      if time < tc || (time = tc && seq < (Array.unsafe_get events child).seq)
      then continue := false
      else begin
        Array.unsafe_set times !i tc;
        Array.unsafe_set events !i (Array.unsafe_get events child);
        i := child
      end
    end
  done;
  Array.unsafe_set times !i time;
  Array.unsafe_set events !i ev

let ensure_capacity t =
  if t.len = Array.length t.events then begin
    let cap = 2 * Array.length t.events in
    let times = Array.make cap 0. in
    let events = Array.make cap dummy_event in
    Array.blit t.times 0 times 0 t.len;
    Array.blit t.events 0 events 0 t.len;
    t.times <- times;
    t.events <- events
  end

let schedule t time ev =
  ev.seq <- t.next_seq;
  t.next_seq <- t.next_seq + 1;
  t.len <- t.len + 1;
  t.live <- t.live + 1;
  sift_up t (t.len - 1) time ev

let add t ~time callback =
  if Float.is_nan time then invalid_arg "Event_heap.add: NaN time";
  ensure_capacity t;
  let ev =
    {
      seq = 0;
      callback;
      pcb = ignore_pcb;
      parg = Packet.dummy;
      cancelled = false;
    }
  in
  schedule t time ev;
  ev

let add_unit t ~time callback =
  if Float.is_nan time then invalid_arg "Event_heap.add_unit: NaN time";
  ensure_capacity t;
  schedule t time
    {
      seq = 0;
      callback;
      pcb = ignore_pcb;
      parg = Packet.dummy;
      cancelled = false;
    }

let add_pkt t ~time pcb p =
  if Float.is_nan time then invalid_arg "Event_heap.add_pkt: NaN time";
  ensure_capacity t;
  schedule t time
    { seq = 0; callback = ignore; pcb; parg = p; cancelled = false }

let cancel t ev =
  if not ev.cancelled then begin
    ev.cancelled <- true;
    t.live <- t.live - 1
  end

(* Remove the root, refilling the hole with the last element. *)
let remove_root t =
  t.len <- t.len - 1;
  if t.len > 0 then sift_down_root t else t.events.(0) <- dummy_event

(* Drop cancelled events as they surface so the root is live (or the
   heap empty) on return. *)
let purge t =
  while t.len > 0 && t.events.(0).cancelled do
    remove_root t
  done

(* The engine's one dispatch step: purge cancelled events, pop the root
   if it is due at or before [limit], write its time into [into] (an
   all-float cell, so the store does not box), then run [pre] (the
   engine's per-event accounting) and fire.  Returns [false] when
   nothing is due.  The popped record is marked cancelled, so cancelling
   a fired event later is a no-op that leaves the live count alone. *)
let step t ~limit ~into ~pre =
  purge t;
  if t.len = 0 then false
  else begin
    let time = Array.unsafe_get t.times 0 in
    if time > limit then false
    else begin
      let ev = Array.unsafe_get t.events 0 in
      remove_root t;
      t.live <- t.live - 1;
      ev.cancelled <- true;
      into.cell_time <- time;
      pre ();
      if ev.parg != Packet.dummy then ev.pcb ev.parg else ev.callback ();
      true
    end
  end

let pop t =
  purge t;
  if t.len = 0 then None
  else begin
    let time = t.times.(0) in
    let ev = t.events.(0) in
    remove_root t;
    t.live <- t.live - 1;
    ev.cancelled <- true;
    if ev.parg != Packet.dummy then begin
      let f = ev.pcb and p = ev.parg in
      Some (time, fun () -> f p)
    end
    else Some (time, ev.callback)
  end

let peek_time t =
  purge t;
  if t.len = 0 then None else Some t.times.(0)

let size t = t.live

let is_empty t = t.live = 0

(* O(n) structural audit for the invariant checker: every stored key is a
   real float, the (time, seq) heap order holds on every parent/child
   edge, and the live count matches the stored non-cancelled events. *)
let well_formed t =
  if t.len < 0 || t.len > Array.length t.times
     || Array.length t.times <> Array.length t.events
     || t.live < 0 || t.live > t.len
  then false
  else begin
    let ok = ref true in
    let stored_live = ref 0 in
    for i = 0 to t.len - 1 do
      if Float.is_nan t.times.(i) then ok := false;
      if not t.events.(i).cancelled then incr stored_live;
      if i > 0 then begin
        let p = (i - 1) / 2 in
        let tp = t.times.(p) and ti = t.times.(i) in
        if tp > ti || (tp = ti && t.events.(p).seq > t.events.(i).seq) then
          ok := false
      end
    done;
    !ok && !stored_live = t.live
  end
