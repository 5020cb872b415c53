(** A minimal JSON value, printer and parser — just enough to write the
    telemetry exports and validate them back, with no external dependency.
    The printer escapes strings per RFC 8259; the parser accepts the full
    grammar (objects, arrays, strings with escapes, numbers, literals). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line) rendering — one call per NDJSON line. *)

val parse : string -> (t, string) result
(** Parse exactly one JSON document; trailing non-whitespace is an error.
    Numbers without [.], [e] or [E] parse as [Int]; a number out of the
    [int] or finite [float] range, and nesting deeper than 512, are
    errors. A [\u] escape takes exactly four hex digits and is decoded
    to UTF-8; a surrogate pair makes one code point and a lone surrogate
    is an error. Never raises; [parse (to_string v)] gives back every value
    [parse] returns. *)

val member : string -> t -> t option
(** Field lookup on [Obj]; [None] on anything else or a missing key. *)
