(** The iterative-improvement move set (Section 3.2): multiplexer tree
    restructuring, module selection/substitution, resource sharing and
    splitting for functional units and registers. *)

module Ir := Impact_cdfg.Ir

type move =
  | Share_fu of int * int  (** keep, absorb *)
  | Split_fu of int * Ir.node_id list
  | Substitute of int * string  (** unit, new module name *)
  | Share_reg of int * int
  | Split_reg of int * Ir.node_id list
  | Restructure of Impact_rtl.Datapath.port

val describe : move -> string

val candidates :
  Solution.env -> Solution.t -> rng:Impact_util.Rng.t -> max:int -> move list
(** All applicable moves, shuffled and truncated to [max].  Register-sharing
    candidates are pre-filtered for lifetime legality under the current
    schedule (they are re-checked after any later re-schedule). *)

val reprices : Solution.env -> Solution.t -> move -> bool
(** Whether the predecessor is feasible and {!apply} keeps its schedule
    (the very decision {!apply} takes), so a power pricing is a delta
    re-price of its ledger (O(footprint) work).
    A move that does not is Heavy: it reschedules, and re-estimates
    unless the new schedule keeps the predecessor's shape. *)

val sched_footprint : Solution.t -> move -> Impact_power.Estimate.footprint
(** The functional units and registers a move touches, named against the
    solution's (pre-move) binding — a split names its source resource,
    which covers every operation the split redistributes.  It is the
    move's pricing footprint in {!apply}: only operations bound to the
    listed units, or fed by multiplexer networks of the listed registers,
    can change delay or resource model values. *)

val apply :
  ?cache:Solution.cache ->
  ?metrics:Solution.metrics ->
  ?delta:bool ->
  Solution.env ->
  Solution.t ->
  move ->
  Solution.t option
(** [None] when the binding rejects the move.  Re-scheduling follows the
    paper's rules: sharing re-schedules; splitting and substitution by a
    faster module keep the schedule; substitution by a slower module and
    restructuring re-schedule.  [cache] and [metrics] are passed through to
    {!Solution.rebuild}.  Every move also passes the predecessor's energy
    ledger, when it is already priced ({!Solution.priced_ledger}), and
    {!sched_footprint} as its pricing footprint, so the estimate
    is delta re-priced whenever the schedule keeps the predecessor's shape
    (always, for a kept schedule); [delta:false] (default [true]) disables
    this and forces full re-estimation (the benches use it as a
    baseline). *)
