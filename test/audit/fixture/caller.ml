module A = Audit_fixture.Aliased
open Audit_fixture

let () =
  Printf.printf "%d %d %d %d %d %d\n"
    (Shared.f ~x:0 ())
    (Shared.g ()) (Shared.run ()) Outer.M.v (Outer.N.c ()) (A.h ())
