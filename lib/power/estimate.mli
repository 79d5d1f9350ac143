(** The fast power estimator that drives synthesis (Section 2.3 + [19]).

    One behavioral simulation provides the traces; the estimator combines
    them with the STG's expected state-visit counts (from the profiled
    Markov chain), the binding's switched-capacitance parameters, and the
    analytic mux-network activity of Equation (7).  No re-simulation is
    performed when a move changes the binding, the module selection or a
    network shape — only trace merges and closed-form evaluation (the
    paper's trace manipulation).

    A context memoises trace statistics per workload run so the
    variable-depth search can evaluate thousands of candidate solutions
    cheaply.  Estimation is structured as an energy {e ledger} of
    per-resource terms; a move that touches a few resources re-prices only
    its footprint ({!reprice}), turning the search inner loop from
    O(datapath) to O(move footprint). *)

type ctx

val create_ctx : ?eff:int array -> Impact_sim.Sim.run -> ctx
(** [?eff] gives per-node effective (active) output widths — typically
    {!Impact_cdfg.Ranges.effective_widths} — and makes the width-scaled
    switching terms (functional units, Sel muxes, steering networks,
    register writes, wiring) price at the clamped width instead of the
    declared one.  Register clock terms keep the declared width: the clock
    tree toggles every flop regardless of data activity.  The array is
    fixed at creation, so memo entries and ledger repricing all price
    consistently.

    Setting the environment variable [IMPACT_CHECK_LEDGER] (to anything but
    [0] or the empty string) makes every {!reprice} cross-check itself
    against a from-scratch estimate and fail on divergence. *)

val run : ctx -> Impact_sim.Sim.run

(** {2 Memoised trace statistics}

    The memo tables behind these are sharded by key hash, so a context can
    be shared by the worker domains of a {!Impact_util.Parallel.pool} (a
    Figure-13 sweep's points) without serialising on one mutex.  Unit keys are canonicalised (sorted)
    before lookup: permuted-but-equal operation groupings hit the same
    entry. *)

val unit_input_switching : ctx -> Impact_cdfg.Ir.node_id list -> float
val unit_output_switching : ctx -> Impact_cdfg.Ir.node_id list -> float
val value_switching : ctx -> Impact_rtl.Datapath.key -> float

val memo_entries : ctx -> int
(** Total entries across the context's trace memo tables (for tests). *)

val memo_cost_ns : ctx -> int
(** Accumulated wall time (ns) spent computing trace-memo entries — the
    measured recompute cost of the memo contents.  Only the benchmark
    harness reads it, as its [power.memo_cost_s] metric. *)

(** {2 Persistable memo snapshots}

    Memo values are pure functions of (run, key), so the memo contents are
    a reusable artifact of the (program, workload) pair: persisting a
    snapshot and seeding it into a fresh context gives a warm-miss request
    (same simulation, different objective/laxity) a hot estimator without
    re-merging any traces.  Snapshots are canonically sorted, so equal
    contents serialise to equal bytes. *)

type memo_snapshot = {
  ms_units : (Impact_cdfg.Ir.node_id list * Traces.unit_stats) list;
  ms_values : (Impact_rtl.Datapath.key * float) list;
}

val export_memos : ctx -> memo_snapshot
(** The context's unit/value switching memo entries, canonically sorted. *)

val seed_memos : ?check:bool -> ctx -> memo_snapshot -> unit
(** Publishes the snapshot's entries into the context (existing entries
    win).  [check] recomputes each entry from the traces and requires
    bit-level agreement, raising [Failure] on divergence — the seeding
    analogue of [IMPACT_STORE_CHECK]. *)

(** {2 Schedule-level memoisation}

    Everything derived from (schedule, profile) alone — ENC, expected
    activations, controller statistics, Sel/wire energy, lifetimes — reads
    only the schedule's shape, not its firings' start and finish times.  It
    is memoised per shape, keyed by {!Impact_sched.Stg.key} (with a one-slot
    physical-identity fast path in front).  The critical path reads the
    times, so it is never served from these tables: every estimate takes it
    from the schedule being priced. *)

val stg_enc : ctx -> Impact_sched.Stg.t -> float
(** Memoised {!Impact_sched.Enc.analytic}. *)

val lifetime : ctx -> Impact_sched.Stg.t -> Impact_rtl.Lifetime.t
(** Memoised {!Impact_rtl.Lifetime.analyse}. *)

type t = {
  est_enc : float;
  est_breakdown : Breakdown.t;  (** per-cycle energy at 5 V *)
  est_power : float;  (** total at the given supply *)
  est_vdd : float;
  est_critical_ns : float;
}

val estimate :
  ctx -> stg:Impact_sched.Stg.t -> dp:Impact_rtl.Datapath.t -> ?vdd:float -> unit -> t

(** {2 The energy ledger and delta re-pricing}

    A ledger records one energy term per functional unit, per register
    (write and clock), and per steering network, plus the schedule-level
    terms.  Totals are produced by a single canonical-order summation, so a
    ledger whose untouched terms were carried from a predecessor totals to
    the {e bit-identical} figure a from-scratch estimate would produce. *)

type ledger

type footprint = { fp_fus : int list; fp_regs : int list }
(** The resources a move touched: re-priced terms.  A network is re-priced
    when its port belongs to a touched unit or register, or when it did not
    exist in the predecessor ledger. *)

val estimate_ledger :
  ctx ->
  stg:Impact_sched.Stg.t ->
  dp:Impact_rtl.Datapath.t ->
  ?vdd:float ->
  unit ->
  t * ledger

type term =
  | Scalar of string  (** ["enc"], ["sel"], ["wire"], ["ctrl"], ["critical-ns"] *)
  | Fu of int
  | Reg_write of int
  | Reg_clock of int
  | Net of Impact_rtl.Datapath.port
  | Act of int  (** a node's expected activations *)

val ledger_entries : ledger -> (term * float) list
(** Every energy term in the ledger, named structurally, in the ledger's
    own order: the schedule-level scalars, then units, register writes and
    clocks by ascending id, networks in index order, node activations by
    node id — the raw material of the power verification pass, which
    requires every term nonnegative and finite. *)

val term_label : term -> string
(** ["fu 3"], ["reg-write 5"], ["reg-clock 5"], ["net fu2 port 0"],
    ["net reg 4"], ["act n7"], or the scalar's name. *)

val ledger_terms : ledger -> (string * float) list
(** Every energy term in the ledger as labelled floats
    ({!term_label}), sorted by label: the persisted listing a stored
    design is checked against. *)

val can_reprice : ctx -> ledger -> stg:Impact_sched.Stg.t -> bool
(** True when {!reprice} will take the delta path: the ledger's schedule is
    physically the given one (the move kept the schedule), or it has the
    same shape ({!Impact_sched.Stg.key}; the move rescheduled, but only the
    firings' times moved). *)

val reprice :
  ctx ->
  prev:ledger ->
  footprint:footprint ->
  stg:Impact_sched.Stg.t ->
  dp:Impact_rtl.Datapath.t ->
  ?vdd:float ->
  unit ->
  t * ledger
(** When {!can_reprice} holds, recompute only the footprint's terms and
    carry every other term from [prev]; the critical path is [stg]'s own.
    Otherwise fall back to {!estimate_ledger}: a new shape may change every
    activation-weighted term.  Either way the result is bit-identical to
    {!estimate_ledger} on [stg] and [dp], provided [footprint] names every
    unit and register whose term the move changed. *)
