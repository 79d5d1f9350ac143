(** SCALP-style variable-depth iterative improvement (Section 3.1).

    Each iteration builds a sequence of up to [depth] moves, always applying
    the best available candidate even when its gain is negative (that is how
    the search escapes local minima); the prefix of the sequence with the
    best cumulative cost becomes the new solution if it improves on the
    current one.  The search stops when a whole iteration yields no
    improvement.

    With [num_probes >= 2] the search runs speculatively: every iteration
    launches that many full depth probes, each pivoting at a different
    accepted-prefix seed of the current solution (anchor 0 is the current
    solution, anchor [j] the solution [j] moves earlier on the accepted
    trajectory), each with a private Rng stream, estimator replica and
    cache overlay.  The coordinator merges the replicas in pivot order and
    accepts the lowest-cost probe result (ties broken by smallest pivot
    index) if it improves on the current solution — the accepted trajectory
    is therefore a deterministic function of the seed, bit-identical
    whether probes run sequentially or across a pool's domains. *)

type stats = {
  iterations : int;
  sequences_applied : int;
  moves_applied : Moves.move list;  (** in application order *)
  candidates_evaluated : int;
  cache_hits : int;  (** candidate builds answered by the signature cache *)
  pruned_infeasible : int;
      (** candidates rejected by the feasibility pre-check before their
          power estimate *)
  delta_repriced : int;
      (** candidate estimates produced by footprint re-pricing instead of a
          full datapath sweep *)
  probes_launched : int;
      (** speculative depth probes started ([num_probes] per iteration; 0
          on the flat path) *)
  probes_won : int;  (** merges that accepted a probe's best prefix *)
  steals : int;
      (** work-stealing deque steals across the probe fan-outs (0 on the
          flat path).  A scheduling diagnostic: unlike the counters above
          it depends on runtime timing and is {e not} reproducible
          run-to-run *)
  domain_busy_fraction : float;
      (** evaluation time divided by domain-seconds of capacity across the
          probe fan-outs (1.0 when nothing was fanned out).  Timing-
          dependent diagnostic, like [steals] *)
  verified_accepts : int;
      (** solutions re-verified by the cross-layer pass stack under
          [IMPACT_VERIFY_EACH] (0 when the mode is off) *)
  frags_reused : int;
      (** STG fragments served from the region-fragment cache during this
          run's reschedules (0 without a fragment cache).  With concurrent
          probes the split between reused and scheduled is
          timing-dependent, like [cache_hits]; schedules never are *)
  frags_scheduled : int;
      (** STG fragments computed by leaf scheduling and filed in the
          fragment cache during this run *)
}

val default_num_probes : int
(** The probe count {!Driver.default_options} and the CLI use (1, the flat
    search: DESIGN.md, "Speculative parallel search", gives the
    quality-vs-time table behind it). *)

val optimize :
  Solution.env ->
  Solution.t ->
  rng:Impact_util.Rng.t ->
  depth:int ->
  max_candidates:int ->
  ?max_iterations:int ->
  ?filter:(Moves.move -> bool) ->
  ?pool:Impact_util.Parallel.pool ->
  ?cache:Solution.cache ->
  ?delta:bool ->
  ?num_probes:int ->
  unit ->
  Solution.t * stats
(** [filter] restricts the move set (used by the ablation benches, e.g. to
    disable multiplexer restructuring).  [cache] reuses
    environment-independent candidate builds across iterations — and across
    calls, when the caller shares one cache between runs whose environments
    agree on program, schedule config and estimation context.  [delta]
    (default [true]) lets schedule-keeping moves re-price only their
    resource footprint against the predecessor's energy ledger; the totals
    are bit-identical to full re-estimation either way.

    [num_probes] (default 1) selects the speculative multi-pivot mode
    described above.  It changes the search trajectory (more exploration
    per iteration) but never depends on [pool]: the same [num_probes] gives
    the same result at any job count.

    [pool] supplies the domains.  In speculative mode the probes fan out
    (one work-stealing unit each) when the hardware has more than one
    core to offer.  The flat path never uses the pool: it evaluates each
    depth-step's candidate batch in order on the caller.  Placement never
    changes values: results are bit-identical to the sequential path for a
    fixed seed either way.

    With the [IMPACT_VERIFY_EACH] environment variable set (to anything but
    [0] or the empty string), the start solution and every solution the
    search commits to are re-verified by {!Solution.diagnostics};
    error-severity findings raise [Failure].  On the flat path that is
    every feasible solution of each accepted move sequence; in speculative
    mode it is the merged accepted solution of each iteration — losing
    probes are speculative work the search never stands behind.
    Verification never changes the search trajectory, so results are
    bit-identical with the mode on or off. *)
