(* Host-speed reference.

   A shared host's speed can drift by 20-40% over tens of seconds
   (measured on a 2-core VM), mostly through contention in the memory
   system, and a 25-second run sees only one or two of those states.  So the parent process times a fixed,
   allocation-heavy kernel in its own process before and after every
   repetition, and reports times in reference seconds: measured seconds
   times [nominal_s] over the kernel's mean time around that
   repetition.  The kernel is benchmark code, not library code, so no
   change to the library moves it; run in the parent process, it never
   touches the measured process's heap. *)

(* Time of one kernel pass on the 2-core reference VM. *)
let nominal_s = 0.1

let pass () =
  let t0 = Span.now_ns () in
  let h = Hashtbl.create 1024 in
  for i = 1 to 300_000 do
    Hashtbl.replace h ((i * 7919) land 0x3ffff) [ i; i + 1 ]
  done;
  ignore (Sys.opaque_identity h);
  float_of_int (Span.now_ns () - t0) /. 1e9

(* Seconds of one kernel pass now (mean of two). *)
let kernel_s () =
  let a = pass () in
  let b = pass () in
  (a +. b) /. 2.
