(** A minimal JSON parser and writer — just enough to emit the
    exporters' output and the pm2-ctl/1 frames and read them back (the
    toolchain ships no JSON library, and the smoke tests must not
    invent a dependency).

    The reader is a cursor over the input: it reads byte codes, takes
    a string without an escape as one [String.sub], reads
    [-?[0-9]{1,15}] as an int (exact below 2^53) and every other number
    with [float_of_string]. Numbers are floats; a \u escape takes
    exactly four hex digits and is decoded for the BMP only.
    Containers nest at most 64 deep: the 65th opening bracket is an
    error at its offset, so a hostile input cannot grow the parser's
    stack or heap with its nesting. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

(** Whole-input parse: trailing non-whitespace is an error. An error
    reads ["<what> at offset <n>"], or ["trailing characters"]. *)
val parse : string -> (t, string) result

(** @raise Failure on malformed input. *)
val parse_exn : string -> t

(** Escape a string for inclusion between JSON quotes: quotes, backslash,
    and all control characters U+0000–U+001F are escaped; bytes >= 0x80
    pass through verbatim (opaque UTF-8) and round-trip through
    {!parse}. *)
val escape : string -> string

(** {1 Writer}

    Every JSON shape the runtime emits goes through these primitives into
    one [Buffer.t], with no intermediate tree: [Event.write] streams
    events, and {!to_string} renders a tree with the same calls. Commas
    are placed by the writer. Numbers: integral values below 1e15 print
    like [%.0f] (["-0"] for [-0.]), other finite values as [%.17g],
    non-finite ones as [null]. The writer allocates nothing of its own
    but a [%.17g] rendering that differs from the last one. *)

type writer

(** A writer appending to [buf], positioned before one top-level value. *)
val writer : Buffer.t -> writer

val obj_start : writer -> unit
val obj_end : writer -> unit
val arr_start : writer -> unit
val arr_end : writer -> unit

(** An object key; the next call writes its value. *)
val key : writer -> string -> unit

val int : writer -> int -> unit
val num : writer -> float -> unit
val str : writer -> string -> unit
val bool : writer -> bool -> unit

(** [key] then the value. *)
val int_field : writer -> string -> int -> unit
val num_field : writer -> string -> float -> unit
val str_field : writer -> string -> string -> unit
val bool_field : writer -> string -> bool -> unit

(** A whole tree. *)
val value : writer -> t -> unit

(** Compact single-line serialization through {!value}, so
    [parse (to_string v) = Ok v] for any value whose numbers are
    finite. *)
val to_string : t -> string

(** Object field lookup ([None] on non-objects and absent keys). *)
val member : string -> t -> t option

val to_list : t -> t list option
val to_float : t -> float option
val to_string_val : t -> string option
