(** Size and time helpers shared across the simulator and the benches. *)

val kib : int -> int
(** [kib n] is [n * 1024]. *)

val mib : int -> int
(** [mib n] is [n * 1024 * 1024]. *)

val gib : int -> int

val bytes_to_string : int -> string
(** Human-friendly byte count: ["64 KB"], ["3.5 GB"], ... *)

val us_to_string : float -> string
(** Microseconds with adaptive precision: ["74.3 us"], ["1.25 ms"]. *)
