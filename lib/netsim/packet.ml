type payload = ..

type payload += Raw of int

type dst = Unicast of int | Multicast of int

type t = {
  mutable uid : int;
  mutable flow : int;
  mutable size : int;
  mutable src : int;
  mutable dst : dst;
  mutable payload : payload;
  mutable created : float;
  mutable hops : int;
  (* Arena plumbing.  [pooled] is fixed at allocation: arena records are
     recycled through {!release}/{!alloc}, heap records (from {!make})
     are left to the GC and [release] on them is a no-op — so code
     outside the simulator may hold a {!make}d packet as long as it
     likes.  [live] is the use-after-free guard: false between release
     and the next acquire. *)
  pooled : bool;
  mutable live : bool;
}

exception Use_after_free of string

(* Atomic so packet allocation is race-free when independent engines run
   in parallel sweep domains.  Uids are process-global identifiers for
   traces and pretty-printing only — no protocol logic reads them — so
   cross-domain interleaving of the sequence is harmless. *)
let next_uid = Atomic.make 0

let fresh_uid () = Atomic.fetch_and_add next_uid 1 + 1

let ttl_limit = 64

let dummy_payload = Raw (-1)

(* A released arena record: what {!alloc} fills in. *)
let blank () =
  {
    uid = 0;
    flow = 0;
    size = 0;
    src = 0;
    dst = Unicast (-1);
    payload = dummy_payload;
    created = 0.;
    hops = 0;
    pooled = true;
    live = false;
  }

(* Sentinel for empty data-structure slots (queue rings).  Flagged as a
   released arena record so any accidental send trips the {!guard}. *)
let dummy = blank ()

(* ------------------------------------------------------------- arena *)

(* A LIFO stack of released records, [free.(0 .. top-1)].  It starts
   empty and only grows when a release finds it full, so it never holds
   more records than the engine once had live at the same time. *)
type arena = { mutable free : t array; mutable top : int }

let arena () = { free = [||]; top = 0 }

(* ------------------------------------------------------- constructors *)

let make ~flow ~size ~src ~dst ~created payload =
  if size <= 0 then invalid_arg "Packet.make: size must be positive";
  {
    uid = fresh_uid ();
    flow;
    size;
    src;
    dst;
    payload;
    created;
    hops = 0;
    pooled = false;
    live = true;
  }

(* A fresh record comes from the heap only while the arena has no
   released one; once the engine reaches its peak of live packets every
   alloc is a pop. *)
let acquire a =
  if a.top > 0 then begin
    a.top <- a.top - 1;
    Array.unsafe_get a.free a.top
  end
  else blank ()

let alloc a ~flow ~size ~src ~dst ~created payload =
  if size <= 0 then invalid_arg "Packet.alloc: size must be positive";
  let p = acquire a in
  p.uid <- fresh_uid ();
  p.flow <- flow;
  p.size <- size;
  p.src <- src;
  p.dst <- dst;
  p.payload <- payload;
  p.created <- created;
  p.hops <- 0;
  p.live <- true;
  p

let release a p =
  if p.pooled then begin
    if not p.live then
      raise (Use_after_free (Printf.sprintf "double release of packet #%d" p.uid));
    p.live <- false;
    (* Drop the payload so a recycled record never pins a protocol
       message across reuse. *)
    p.payload <- dummy_payload;
    if a.top = Array.length a.free then begin
      (* 512 slots and up are past [Max_young_wosize]: the stack is
         allocated straight into the major heap and never costs minor
         words, however often it doubles. *)
      let free = Array.make (max 512 (2 * a.top)) dummy in
      Array.blit a.free 0 free 0 a.top;
      a.free <- free
    end;
    Array.unsafe_set a.free a.top p;
    a.top <- a.top + 1
  end

let set_hops p n = p.hops <- n

(* Same uid on purpose: a corrupted packet is the same physical packet
   with mangled contents, and traces identify it by uid.  The copy is a
   heap record regardless of the source's poolness — fault injectors may
   hold it across the Replace dispatch, after the original is released. *)
let with_payload p payload = { p with payload; pooled = false; live = true }

(* Use-after-free tripwire on the simulator entry points (send/inject):
   two flag tests, so it is cheap enough to leave always on. *)
let guard ctx p =
  if p.pooled && not p.live then
    raise (Use_after_free (Printf.sprintf "%s: packet #%d was released" ctx p.uid))

let clone a p =
  if p.pooled then begin
    let q = acquire a in
    q.uid <- fresh_uid ();
    q.flow <- p.flow;
    q.size <- p.size;
    q.src <- p.src;
    q.dst <- p.dst;
    q.payload <- p.payload;
    q.created <- p.created;
    q.hops <- p.hops;
    q.live <- true;
    q
  end
  else { p with uid = fresh_uid () }

let pp ppf p =
  let dst =
    match p.dst with
    | Unicast n -> Printf.sprintf "n%d" n
    | Multicast g -> Printf.sprintf "g%d" g
  in
  Format.fprintf ppf "#%d flow=%d %dB n%d->%s hops=%d" p.uid p.flow p.size
    p.src dst p.hops
