(** Simulation-checked soundness gate for {!Impact_cdfg.Ranges}.

    The range oracle: under [IMPACT_CHECK=1] every simulation run is
    replayed against the range analysis: each value a node ever produced
    (the full event log, all passes, all loop iterations) must lie inside
    the node's inferred abstract value.  A violation is an analysis bug,
    never a program bug, so it fails loudly. *)

val check : Impact_cdfg.Ranges.t -> Sim.run -> unit
(** @raise Failure ["IMPACT_CHECK (range): ..."] naming the first node
    whose simulated output escapes its inferred fact. *)

val check_run : Sim.run -> unit
(** Analyze the run's program from scratch and {!check} against it. *)
