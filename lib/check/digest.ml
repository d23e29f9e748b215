type t = { mutable h : int64 }

let offset_basis = 0xcbf29ce484222325L

let prime = 0x100000001b3L

let create () = { h = offset_basis }

let add_char t c =
  t.h <- Int64.mul (Int64.logxor t.h (Int64.of_int (Char.code c))) prime

let add_string t s = String.iter (fun c -> add_char t c) s

let to_hex t = Printf.sprintf "%016Lx" t.h
