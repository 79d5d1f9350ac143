(** Sanity verification of the power model's inputs and outputs.

    Rules are prefixed ["power/"]:
    - [power/negative-term]: an energy-ledger term is negative or not
      finite (every term is a switched-capacitance sum, so a negative or
      NaN value means a broken trace merge or repricing bug);
    - [power/trace-profile-mismatch]: the number of profiled evaluations of
      a condition edge differs from the length of its producer's event
      trace — the Markov-chain probabilities and the switching traces would
      then describe different executions. *)

val check_ledger : Estimate.ledger -> Impact_util.Diagnostic.t list

val check_run : Impact_sim.Sim.run -> Impact_util.Diagnostic.t list

val check :
  ?ledger:Estimate.ledger -> Impact_sim.Sim.run -> Impact_util.Diagnostic.t list
(** [check_run] plus [check_ledger] when a ledger is given. *)
