(** The one JSON codec of the library, the CLI and the bench harness.

    Writers: {!escape} quotes every string that lands in a Chrome trace,
    a BENCH file or the FMECA ranking, and {!lines} is the
    record-per-line array layout of every BENCH file and of the
    ranking.  Records keep their own [printf] formats, because each
    committed file pins its numeric precision; only the escaper and the
    array around them are shared.

    Reader: {!of_string}, a small recursive-descent parser (no external
    dependency) that reads Chrome traces and FMECA baselines back. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list  (** members in document order *)

exception Parse_error of string
(** A malformed document: the reason and the byte offset it was found
    at. *)

val escape : string -> string
(** The body of a JSON string literal holding [s], without the quotes:
    ["\""], ["\\"] and the control characters are escaped, every other
    byte passes through. *)

val lines : string list -> string
(** A JSON array with one record per line: ["[\n  r1,\n  r2\n]\n"].
    Each record is one object's text, without indentation. *)

val of_string : string -> t
(** Parse one JSON document; only whitespace may follow it.  Numbers
    follow RFC 8259 exactly (no [+], no leading zero, digits on both
    sides of a [.]) and must be finite as floats.  A [\u] escape above
    0x7f decodes as ['?'].  Raises {!Parse_error}. *)
