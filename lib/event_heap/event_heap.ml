(* Binary min-heap of entries on (time, seq) (see event_heap.mli).

   The heap proper is three parallel unboxed arrays — [times], [seqs]
   and [slots] — so a sift moves only floats and ints: no pointer
   chasing to compare two entries and no write barrier per level.  Each
   heap position names a slot; the entry's payload lives in per-slot
   tables, either a closure ([fns]) or a message: a function applied to
   its two arguments ([msgs]/[args]/[ints]).  The message form lets the
   simulator's links and the rt fabric schedule a delivery with one
   preallocated function instead of a fresh closure per in-flight
   datagram; [args] doubles as the discriminator ([dummy] means closure
   form).

   A slot's payload is written once when its entry is scheduled and
   cleared once when the entry leaves the heap, so a fired entry's
   closure or message is not kept alive by the tables.  [owner] holds
   the seq of the entry occupying each slot, or -1 once that entry fired
   or was cancelled: an entry is live exactly when its seq matches its
   slot's owner.  A cancel handle carries (slot, seq), so a handle whose
   entry has fired can never cancel the slot's next occupant.

   Cancellation is lazy: the entry stays in the heap (with its slot)
   until it surfaces at the root, where [purge] drops it.  Every heap
   position owns one slot, so the slot tables never outgrow the heap
   arrays, and with no free slot the slots in use are 0 .. len-1.

   No entry record is allocated per schedule — only [add] allocates its
   small handle — which is why this is not the freelist of recycled
   records DESIGN.md §14 rejects: no record is refilled, and a sift
   stores no pointer. *)

type handle = { h_slot : int; h_seq : int }

type 'a t = {
  mutable times : float array; (* heap order: time *)
  mutable seqs : int array; (* heap order: insertion seq, the tie-break *)
  mutable slots : int array; (* heap order: payload slot *)
  mutable len : int;
  mutable live : int;
  mutable next_seq : int;
  mutable owner : int array; (* by slot: seq of the live occupant, or -1 *)
  mutable fns : (unit -> unit) array; (* by slot: closure payload *)
  mutable msgs : ('a -> int -> unit) array; (* by slot: message function *)
  mutable args : 'a array; (* by slot: its first argument, or [dummy] *)
  mutable ints : int array; (* by slot: its second argument *)
  mutable free : int array; (* stack of free slots *)
  mutable nfree : int;
  dummy : 'a;
}

let ignore_msg _ (_ : int) = ()

(* All-float cell (raw double storage): [step] writes the popped time
   here so the caller's clock update is a plain store, and [insert]
   reads a deadline's base from one. *)
type time_cell = { mutable cell_time : float }

let time_zero = { cell_time = 0. }

let initial_capacity = 64

let create ~dummy =
  let cap = initial_capacity in
  {
    times = Array.make cap 0.;
    seqs = Array.make cap 0;
    slots = Array.make cap 0;
    len = 0;
    live = 0;
    next_seq = 0;
    owner = Array.make cap (-1);
    fns = Array.make cap ignore;
    msgs = Array.make cap ignore_msg;
    args = Array.make cap dummy;
    ints = Array.make cap 0;
    free = Array.make cap 0;
    nfree = 0;
    dummy;
  }

let grow t =
  let cap = 2 * Array.length t.times in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  in
  t.times <- extend t.times 0.;
  t.seqs <- extend t.seqs 0;
  t.slots <- extend t.slots 0;
  t.owner <- extend t.owner (-1);
  t.fns <- extend t.fns ignore;
  t.msgs <- extend t.msgs ignore_msg;
  t.args <- extend t.args t.dummy;
  t.ints <- extend t.ints 0;
  t.free <- extend t.free 0

(* The sift loops keep every float comparison inside one function body:
   without flambda a float passed to a helper is boxed at each call, so
   the comparisons are hand-inlined and the keys stay in FP registers.
   Indices are bounded by [t.len] (a local invariant of each loop), so
   array accesses use the unsafe primitives. *)

(* Claim a slot for a new entry due at [base + offset] and sift it up.
   The key is summed here, so it stays an unboxed local: a deadline
   summed by the caller would be boxed to cross into this module (the
   dev profile compiles with [-opaque]).  The new seq is the largest, so
   only a strictly later parent moves down.  Returns the slot; the
   caller writes the payload. *)
let insert t base offset =
  let time = base.cell_time +. offset in
  if Float.is_nan time then invalid_arg "Event_heap: NaN deadline";
  if t.len = Array.length t.times then grow t;
  let s =
    if t.nfree > 0 then begin
      t.nfree <- t.nfree - 1;
      Array.unsafe_get t.free t.nfree
    end
    else t.len
  in
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  Array.unsafe_set t.owner s seq;
  let times = t.times and seqs = t.seqs and slots = t.slots in
  let i = ref t.len in
  t.len <- t.len + 1;
  t.live <- t.live + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    let tp = Array.unsafe_get times parent in
    if time < tp then begin
      Array.unsafe_set times !i tp;
      Array.unsafe_set seqs !i (Array.unsafe_get seqs parent);
      Array.unsafe_set slots !i (Array.unsafe_get slots parent);
      i := parent
    end
    else continue := false
  done;
  Array.unsafe_set times !i time;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set slots !i s;
  s

let add t ~base ~offset callback =
  let s = insert t base offset in
  Array.unsafe_set t.fns s callback;
  { h_slot = s; h_seq = Array.unsafe_get t.owner s }

let add_unit t ~base ~offset callback =
  let s = insert t base offset in
  Array.unsafe_set t.fns s callback

let add_msg t ~base ~offset f x n =
  let s = insert t base offset in
  Array.unsafe_set t.msgs s f;
  Array.unsafe_set t.args s x;
  Array.unsafe_set t.ints s n

let cancel t h =
  if t.owner.(h.h_slot) = h.h_seq then begin
    t.owner.(h.h_slot) <- -1;
    t.live <- t.live - 1
  end

(* Remove the root: free its slot, clear its payload, and refill the
   hole with the last entry, sifting it down.  The moved entry's key is
   loaded here rather than passed in, so it is never boxed. *)
let remove_root t =
  let s0 = Array.unsafe_get t.slots 0 in
  Array.unsafe_set t.owner s0 (-1);
  if Array.unsafe_get t.args s0 != t.dummy then begin
    Array.unsafe_set t.args s0 t.dummy;
    Array.unsafe_set t.msgs s0 ignore_msg
  end
  else Array.unsafe_set t.fns s0 ignore;
  Array.unsafe_set t.free t.nfree s0;
  t.nfree <- t.nfree + 1;
  let len = t.len - 1 in
  t.len <- len;
  if len > 0 then begin
    let times = t.times and seqs = t.seqs and slots = t.slots in
    let time = Array.unsafe_get times len in
    let seq = Array.unsafe_get seqs len in
    let s = Array.unsafe_get slots len in
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
            else if Array.unsafe_get seqs r < Array.unsafe_get seqs l then r
            else l
          end
        in
        let tc = Array.unsafe_get times child in
        if time < tc || (time = tc && seq < Array.unsafe_get seqs child) then
          continue := false
        else begin
          Array.unsafe_set times !i tc;
          Array.unsafe_set seqs !i (Array.unsafe_get seqs child);
          Array.unsafe_set slots !i (Array.unsafe_get slots child);
          i := child
        end
      end
    done;
    Array.unsafe_set times !i time;
    Array.unsafe_set seqs !i seq;
    Array.unsafe_set slots !i s
  end

let root_live t =
  Array.unsafe_get t.owner (Array.unsafe_get t.slots 0)
  = Array.unsafe_get t.seqs 0

(* Drop cancelled entries as they surface so the root is live (or the
   heap empty) on return. *)
let purge t =
  while t.len > 0 && not (root_live t) do
    remove_root t
  done

(* The one dispatch step: purge cancelled entries, pop the root if it
   is due at or before [limit], write its time into [into] (an
   all-float cell, so the store does not box), then run [pre] (the
   owner's per-entry accounting) and fire.  Returns [false] when
   nothing is due.  The payload is read before [remove_root] frees the
   slot, so a callback may schedule into it straight away. *)
let step t ~limit ~into ~pre =
  purge t;
  if t.len = 0 then false
  else begin
    let time = Array.unsafe_get t.times 0 in
    if time > limit then false
    else begin
      let s = Array.unsafe_get t.slots 0 in
      let x = Array.unsafe_get t.args s in
      let f = Array.unsafe_get t.msgs s in
      let n = Array.unsafe_get t.ints s in
      let fn = Array.unsafe_get t.fns s in
      remove_root t;
      t.live <- t.live - 1;
      into.cell_time <- time;
      pre ();
      if x != t.dummy then f x n else fn ();
      true
    end
  end

let peek_time t =
  purge t;
  if t.len = 0 then None else Some t.times.(0)

let size t = t.live

(* O(n) structural audit for the invariant checker: every stored key is a
   real float, the (time, seq) heap order holds on every parent/child
   edge, every entry names an in-range slot, and the live count matches
   the entries whose seq still owns their slot. *)
let well_formed t =
  let cap = Array.length t.times in
  if t.len < 0 || t.len > cap
     || Array.length t.seqs <> cap || Array.length t.slots <> cap
     || Array.length t.owner <> cap || Array.length t.fns <> cap
     || Array.length t.msgs <> cap || Array.length t.args <> cap
     || Array.length t.ints <> cap
     || t.nfree < 0 || t.len + t.nfree > cap
     || t.live < 0 || t.live > t.len
  then false
  else begin
    let ok = ref true in
    let stored_live = ref 0 in
    for i = 0 to t.len - 1 do
      let s = t.slots.(i) in
      if Float.is_nan t.times.(i) || s < 0 || s >= cap then ok := false
      else if t.owner.(s) = t.seqs.(i) then incr stored_live;
      if i > 0 then begin
        let p = (i - 1) / 2 in
        let tp = t.times.(p) and ti = t.times.(i) in
        if tp > ti || (tp = ti && t.seqs.(p) > t.seqs.(i)) then ok := false
      end
    done;
    !ok && !stored_live = t.live
  end

let livelock_events = 1_000_000
