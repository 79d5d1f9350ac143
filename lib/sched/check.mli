(** Structural invariants of a schedule.

    Findings are reported as {!Impact_util.Diagnostic.t} values so they
    compose with the [Verify] framework; rules are prefixed ["stg/"]. *)

type issue = Impact_util.Diagnostic.t

val check : ?profile:Impact_sim.Profile.t -> Impact_cdfg.Graph.program -> Stg.t -> issue list
(** Checked invariants:
    - every graph node has at least one firing site; loop merges have both
      an init-phase and a back-phase firing site ([stg/no-firing-site]);
    - per state, transition guards are deterministic and exhaustive: every
      assignment of the guard atoms matches exactly one transition
      ([stg/guard-nondeterministic], [stg/guard-not-exhaustive],
      [stg/no-transition]).  When a state tests more than 12 distinct
      condition edges the 2^k sweep is intractable: determinism is then
      checked exactly via pairwise guard-conflict analysis, exhaustiveness
      falls back to the assignments observed in [profile] (when given), and
      a [stg/guard-check-skipped] {e warning} records the reduced coverage;
    - firing times fit in the clock period ([stg/timing-overrun]) and
      start offsets are nonnegative ([stg/timing-inconsistent]).  Start and
      finish are offsets within the first and last clock periods of the
      firing's span, so a multi-cycle firing may legally finish at a
      smaller — even negative — offset than it starts (the output network
      can extend the span past the cycle where the raw result was ready);
    - the exit state is absorbing and fires nothing ([stg/exit-fires],
      [stg/exit-successors]);
    - the splice invariants of {!splice_issues}. *)

val splice_issues : Stg.t -> issue list
(** The splice contract of a composed STG: entry, exit and every
    transition destination name states of the array
    ([stg/splice-entry-range], [stg/splice-exit-range],
    [stg/splice-dangling-transition]).  Included in {!check}. *)
