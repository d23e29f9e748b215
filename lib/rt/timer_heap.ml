(* Binary min-heap of timers on (deadline, seq) (see timer_heap.mli).

   The heap proper is three parallel unboxed arrays, so sifting moves
   only floats and ints: no pointer chasing to compare two entries and
   no write barrier per level.  Each heap position names a slot.  A
   slot is either a closure timer, whose handle sits in [timers], or a
   frame delivery, marked in [timers] by [frame_tag] and stored in the
   parallel [deliver]/[frame]/[size] arrays.  A slot is written once
   when its entry is scheduled and cleared once when it leaves the
   heap, so neither a fired timer's closure nor a delivered frame is
   kept alive by the arrays.

   Cancellation tombstones the timer in place; its slot is reclaimed
   when it surfaces at the root, in [advance] or [next_due].  Frame
   slots have no handle and are never cancelled. *)

type timer = { fn : unit -> unit; mutable live : bool }

type t = {
  mutable at : float array; (* heap order: deadline *)
  mutable seq : int array; (* heap order: insertion seq, the tie-break *)
  mutable slot : int array; (* heap order: slot index *)
  mutable n : int;
  mutable timers : timer array; (* by slot: the handle, or [frame_tag] *)
  mutable deliver : (bytes -> int -> unit) array; (* by slot, frame slots *)
  mutable frame : bytes array; (* by slot, frame slots *)
  mutable size : int array; (* by slot, frame slots *)
  mutable free : int array; (* stack of free slots below [n + nfree] *)
  mutable nfree : int;
  mutable next_seq : int;
  mutable fired : int;
}

let dead = { fn = ignore; live = false }

(* Shared by every frame slot.  It is never handed out, so its [live]
   stays true and [advance], [next_due] and [pending] treat a frame
   slot as a live timer. *)
let frame_tag = { fn = ignore; live = true }

let no_deliver (_ : bytes) (_ : int) = ()

let create () =
  let cap = 64 in
  {
    at = Array.make cap 0.;
    seq = Array.make cap 0;
    slot = Array.make cap 0;
    n = 0;
    timers = Array.make cap dead;
    deliver = Array.make cap no_deliver;
    frame = Array.make cap Bytes.empty;
    size = Array.make cap 0;
    free = Array.make cap 0;
    nfree = 0;
    next_seq = 0;
    fired = 0;
  }

let grow t =
  let cap = 2 * Array.length t.at in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  in
  t.at <- extend t.at 0.;
  t.seq <- extend t.seq 0;
  t.slot <- extend t.slot 0;
  t.timers <- extend t.timers dead;
  t.deliver <- extend t.deliver no_deliver;
  t.frame <- extend t.frame Bytes.empty;
  t.size <- extend t.size 0;
  t.free <- extend t.free 0

let move t ~src ~dst =
  t.at.(dst) <- t.at.(src);
  t.seq.(dst) <- t.seq.(src);
  t.slot.(dst) <- t.slot.(src)

(* Rejects a NaN deadline, then returns a free slot for the new entry,
   growing the arrays when the heap is full.  Every heap position owns
   one slot, so with no free slot the slots in use are exactly
   0 .. n-1. *)
let claim t ~at =
  if Float.is_nan at then invalid_arg "Timer_heap.schedule: NaN deadline";
  if t.n = Array.length t.at then grow t;
  if t.nfree > 0 then begin
    t.nfree <- t.nfree - 1;
    t.free.(t.nfree)
  end
  else t.n

(* Sift slot [s] up from the end under the next seq.  The new seq is
   the largest, so only a strictly later parent moves down. *)
let push t ~at s =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let i = ref t.n in
  t.n <- t.n + 1;
  while !i > 0 && at < t.at.((!i - 1) / 2) do
    let p = (!i - 1) / 2 in
    move t ~src:p ~dst:!i;
    i := p
  done;
  t.at.(!i) <- at;
  t.seq.(!i) <- seq;
  t.slot.(!i) <- s

let schedule t ~at fn =
  let s = claim t ~at in
  let e = { fn; live = true } in
  t.timers.(s) <- e;
  push t ~at s;
  e

let schedule_frame t ~at deliver frame size =
  let s = claim t ~at in
  t.timers.(s) <- frame_tag;
  t.deliver.(s) <- deliver;
  t.frame.(s) <- frame;
  t.size.(s) <- size;
  push t ~at s

let cancel e = e.live <- false

let root t = t.timers.(t.slot.(0))

(* Remove the root, free its slot, and sift the last entry down. *)
let pop t =
  let s0 = t.slot.(0) in
  if t.timers.(s0) == frame_tag then t.frame.(s0) <- Bytes.empty;
  t.timers.(s0) <- dead;
  t.free.(t.nfree) <- s0;
  t.nfree <- t.nfree + 1;
  let n = t.n - 1 in
  t.n <- n;
  if n > 0 then begin
    let at = t.at.(n) and seq = t.seq.(n) and s = t.slot.(n) in
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      if l >= n then sifting := false
      else begin
        let r = l + 1 in
        let c =
          if r < n && (t.at.(r) < t.at.(l) || (t.at.(r) = t.at.(l) && t.seq.(r) < t.seq.(l)))
          then r
          else l
        in
        if t.at.(c) < at || (t.at.(c) = at && t.seq.(c) < seq) then begin
          move t ~src:c ~dst:!i;
          i := c
        end
        else sifting := false
      end
    done;
    t.at.(!i) <- at;
    t.seq.(!i) <- seq;
    t.slot.(!i) <- s
  end

let rec next_due t =
  if t.n = 0 then None
  else if (root t).live then Some t.at.(0)
  else begin
    pop t;
    next_due t
  end

(* Zero-delay chains are finite in TFMCC (its timers are paced); the cap
   turns a runaway chain into a crash instead of a hang.  Only timers
   scheduled during this advance count, so a large due backlog cannot
   trip it. *)
let max_spawned = 1_000_000

let advance t ~now ?late ~fire ~fire_frame () =
  let fired0 = t.fired and seq0 = t.next_seq in
  let spawned = ref 0 in
  while t.n > 0 && (t.at.(0) <= now || not (root t).live) do
    let s = t.slot.(0) in
    let e = t.timers.(s) and at = t.at.(0) and seq = t.seq.(0) in
    (* Read before [pop] clears the frame; stale for a closure slot,
       and then unused. *)
    let deliver = t.deliver.(s) and frame = t.frame.(s) and size = t.size.(s) in
    pop t;
    if e.live then begin
      let is_frame = e == frame_tag in
      if not is_frame then e.live <- false;
      t.fired <- t.fired + 1;
      if seq >= seq0 then begin
        incr spawned;
        if !spawned > max_spawned then
          failwith "Timer_heap.advance: runaway zero-delay timer chain"
      end;
      (match late with Some f -> f at | None -> ());
      if is_frame then fire_frame deliver frame size else fire e.fn
    end
  done;
  t.fired - fired0

let pending t =
  let n = ref 0 in
  for i = 0 to t.n - 1 do
    if t.timers.(t.slot.(i)).live then incr n
  done;
  !n

let fired t = t.fired
