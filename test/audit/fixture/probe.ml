(* Stands for a test: names what only tests reach.  The string below
   is the case that hooks.txt names. *)
open Audit_fixture

let () =
  print_endline "hooked case";
  Printf.printf "%d %d %d\n" Shared.hooked Shared.test_only Shared.untested
