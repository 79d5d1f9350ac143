(** On/off switches read from the environment: the [IMPACT_*_CHECK]
    oracles and [IMPACT_VERIFY_EACH]. *)

val enabled : string -> bool
(** [enabled name] is [false] when the variable [name] is unset, empty or
    ["0"], and [true] for any other value.  It reads the environment at
    each call, so a test may set the variable between calls. *)
