(** The runtime oracles' one switch, the [IMPACT_CHECK] environment
    variable.  With it on, every figure is re-derived another way and a
    disagreement raises [Failure]:
    - [ledger]: every delta-repriced power estimate against a full one
      ([Estimate.create_ctx]);
    - [schedule]: every schedule against the plan-free reference
      ([Scheduler.schedule]);
    - [store]: every warm store or memo answer against a cold
      recomputation ([Tier]);
    - [range]: every simulated value against its inferred range fact
      ([Rangecheck]);
    - [verify]: every solution the search accepts against the full
      verification pass stack ([Search.optimize]). *)

val enabled : unit -> bool
(** [false] when [IMPACT_CHECK] is unset, empty or ["0"], and [true] for
    any other value.  It reads the environment at each call, so a test may
    set the variable between calls. *)

val message : string -> string -> string
(** [message oracle msg] is the text of an oracle's failure,
    ["IMPACT_CHECK (<oracle>): <msg>"], so a failure names the oracle
    that fired. *)

val fail : string -> string -> 'a
(** [fail oracle msg] raises [Failure (message oracle msg)]. *)
