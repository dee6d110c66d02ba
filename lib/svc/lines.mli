(** Splits a byte stream into the newline-terminated lines of the
    [pm2-ctl/1] protocol, in time linear in the bytes received.

    The buffer holds only the unterminated tail of the stream. Each
    {!feed} appends its bytes and searches only those for newlines, so
    every byte is scanned once however many reads a long line takes;
    after the complete lines are handed out, the tail moves to the front
    once. *)

type t

val create : unit -> t

(** [feed t bytes pos len f] appends [bytes[pos, pos+len)] and calls [f]
    on each line it completes, in order, without its ['\n']. *)
val feed : t -> Bytes.t -> int -> int -> (string -> unit) -> unit

(** Bytes of the unterminated line held back for the next {!feed}. *)
val pending : t -> int

(** Bytes searched for a newline since {!create}. *)
val scanned : t -> int
