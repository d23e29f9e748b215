(** Minimal JSON document builder and reader.

    The observability layer must produce machine-readable output without
    pulling in a JSON dependency the container may not have; this module
    covers exactly what {!Metrics}, {!Journal}, the CLI and the bench
    harness need: building a document, serializing it with proper string
    escaping, and parsing documents we (or tools like us) wrote.
    Non-finite floats serialize as [null] (JSON has no representation
    for them). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line) serialization. *)

val of_string : string -> (t, string) result
(** Parses one JSON document (object, array, or scalar).  Numbers
    without [.]/[e] that fit an OCaml [int] come back as [Int], all
    others as [Float]; [\u] escapes outside the BMP are not supported
    (we never emit them).  [Error] carries a message with the byte
    offset of the first problem. *)
