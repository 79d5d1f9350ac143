(** One point in the design space: a binding with its datapath, schedule and
    cached cost figures.

    A solution owns a multiplexer configuration — the set of ports whose
    networks have been Huffman-restructured — so that rebuilding the
    datapath after a binding move re-applies the restructuring moves that
    are still meaningful. *)

module Ir := Impact_cdfg.Ir

type objective = Minimize_area | Minimize_power

type env = {
  program : Impact_cdfg.Graph.program;
  library : Impact_modlib.Module_library.t;
  sched_config : Impact_sched.Scheduler.config;
  est_ctx : Impact_power.Estimate.ctx;
  enc_budget : float;
  objective : objective;
  area_ref : float;
      (** area of the parallel architecture, used as the scale of the small
          area tie-break inside the power objective *)
}

type pricing
(** Where a solution's power estimate comes from: nothing for an infeasible
    solution, otherwise its build entry's nominal-estimate slot. *)

type t = {
  binding : Impact_rtl.Binding.t;
  dp : Impact_rtl.Datapath.t;
  stg : Impact_sched.Stg.t;
  restructured : Impact_rtl.Datapath.port list;
  enc : float;
  vdd : float;  (** supply after using the solution's slack *)
  area : float;
  cost : float;  (** objective value; [infinity] when infeasible *)
  pricing : pricing;
}

(** {1 The power estimate}

    A power-objective pricing computes the nominal estimate, because the
    cost reads it.  An area-objective pricing does not: a feasible
    solution's estimate is computed on the first read of {!est} or
    {!ledger} and kept in the signature-cache entry's slot, where every
    later reader of the same entry (a power search included) finds it.  A
    forced estimate is {!Impact_power.Estimate.estimate_ledger} from
    scratch, bit-identical to the delta-repriced one a power search would
    have made, and holds no reference to a predecessor ledger. *)

val est : t -> Impact_power.Estimate.t
(** At [vdd].  An infeasible solution's estimate is never computed: its
    [est_power] is [infinity] and its breakdown zero. *)

val ledger : t -> Impact_power.Estimate.ledger option
(** The nominal estimate's energy ledger; [None] while infeasible. *)

val priced_ledger : t -> Impact_power.Estimate.ledger option
(** The ledger if it has already been computed, without computing it.
    Successor moves whose schedule keeps the shape re-price against it. *)

(** {1 Evaluation metrics}

    Plain mutable counters for one synthesis run: {!Search.optimize}
    creates one value per call and updates it only on that call's domain,
    so no counter is atomic.  A value must not be shared across domains. *)

type metrics

val create_metrics : unit -> metrics

val metrics_counts : metrics -> int * int * int * int
(** [(cache_hits, pruned_infeasible, rebuilt, delta_repriced)]. *)

val metrics_estimated : metrics -> int
(** Nominal estimates computed by pricing, by delta or from scratch (an
    estimate forced by a read of {!est} or {!ledger} is not counted).  Zero
    across an area-objective search, whose cost never reads power. *)

(** {1 Signature cache}

    Maps a canonical form of [(binding, restructured)] to the
    environment-independent part of an evaluated solution (datapath,
    schedule, ENC, critical path, legality, area, lazily the nominal power
    estimate).  Per-environment pricing — feasibility against the ENC
    budget and clock, Vdd scaling, the objective — is cheap arithmetic, so
    one cache can serve every laxity/objective point of a sweep.  A cache
    must only be shared between environments that agree on [program],
    [sched_config] and [est_ctx].  The table is sharded by key hash
    ({!Impact_util.Shardtbl}), so concurrent domains do not serialise on a
    single lock. *)

type cache

val create_cache : ?frags:Impact_sched.Fragcache.t -> unit -> cache
(** With [frags], every schedule taken on the cached path memoises
    per-region STG fragments there ({!Impact_sched.Scheduler.schedule}):
    a signature miss on a Heavy move then re-runs leaf scheduling only for
    the regions the move perturbed.  The fragment cache inherits the
    signature cache's sharing contract (one program / sched_config). *)

val frag_cache : cache -> Impact_sched.Fragcache.t option

val cache_entries : cache -> int

val cache_priced : cache -> int
(** Entries whose nominal estimate has been computed, by pricing or by a
    read of {!est} or {!ledger}.  Zero after an area-objective search
    whose designs nothing has read. *)

val signature :
  binding:Impact_rtl.Binding.t -> restructured:Impact_rtl.Datapath.port list -> string
(** The canonical cache key, compact binary bytes: unit/register groups by
    their contents ({!Impact_rtl.Binding.add_key}; ids are
    history-dependent), restructured ports anchored by the smallest
    operation/value id they feed. *)

val initial : ?cache:cache -> ?metrics:metrics -> env -> t
(** The parallel architecture scheduled with fastest modules. *)

val rebuild :
  ?cache:cache -> ?metrics:metrics ->
  ?delta:Impact_power.Estimate.ledger * Impact_power.Estimate.footprint ->
  env -> binding:Impact_rtl.Binding.t -> restructured:Impact_rtl.Datapath.port list ->
  reuse_stg:Impact_sched.Stg.t option -> t
(** Builds the datapath (re-applying restructurings), schedules (unless a
    still-valid schedule is supplied), rescales Vdd from the remaining
    slack, estimates power if the objective reads it, prices the objective.
    Solutions violating the ENC budget, the clock period, or
    register-lifetime legality get infinite cost, and the feasibility
    pre-check skips their power estimate entirely (their {!est} carries
    [est_power = infinity]).  With [cache],
    the environment-independent build step is looked up by {!signature};
    a supplied [reuse_stg] always bypasses the cache.  With [delta] — the
    predecessor solution's ledger and the move's resource footprint — the
    nominal power estimate re-prices only the footprint when the schedule
    kept the predecessor's shape ({!Impact_power.Estimate.can_reprice}). *)

val describe : t -> string

val diagnostics : env -> t -> Impact_util.Diagnostic.t list
(** Runs every applicable {!Impact_verify.Verify} pass (cdfg, stg, binding,
    rtl, power) on the solution; an error-free list means the point is
    structurally sound at every layer. *)
