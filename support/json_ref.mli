(** The reference JSON reader: one [char option] per byte, a [Buffer]
    per string, [float_of_string] per number. {!Pm2_obs.Json.parse} must
    return the same tree or the same error string (offsets included) on
    every input. For tests and benchmarks only. *)

val parse : string -> (Pm2_obs.Json.t, string) result
