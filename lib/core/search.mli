(** SCALP-style variable-depth iterative improvement (Section 3.1).

    Each iteration builds a sequence of up to [depth] moves, always applying
    the best available candidate even when its gain is negative (that is how
    the search escapes local minima); the prefix of the sequence with the
    best cumulative cost becomes the new solution if it improves on the
    current one.  The search stops when a whole iteration yields no
    improvement.  It is one trajectory, each step's candidate batch
    evaluated in order on the caller: a deterministic function of the
    seed. *)

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
  probes_launched : int;  (** always 0 *)
  probes_won : int;  (** always 0 *)
  steals : int;  (** always 0 *)
  domain_busy_fraction : float;
      (** always 1.0.  These four are the counters of a deleted speculative
          search engine, kept only because the benchmark harness
          ([perfbench/]) reads them *)
  verified_accepts : int;
      (** solutions re-verified by the cross-layer pass stack under
          the verify oracle, [IMPACT_CHECK] (0 when it is off) *)
  frags_reused : int;  (** always 0 *)
  frags_scheduled : int;
      (** always 0.  These two are the counters of the deleted
          schedule-fragment cache, read only by the benchmark harness
          ([perfbench/]) *)
}

val optimize :
  Solution.env ->
  Solution.t ->
  rng:Impact_util.Rng.t ->
  depth:int ->
  max_candidates:int ->
  ?max_iterations:int ->
  ?filter:(Moves.move -> bool) ->
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

    [num_probes] must be 1 (the default) and raises [Invalid_argument]
    otherwise; it is accepted only because the benchmark harness passes
    it.

    Under [IMPACT_CHECK] (the verify oracle, {!Impact_util.Oracle}), the
    start solution and every feasible solution of each accepted move
    sequence are re-verified by {!Solution.diagnostics}; error-severity
    findings raise [Failure].  Verification never changes the search
    trajectory, so results are bit-identical with the oracle on or off. *)
