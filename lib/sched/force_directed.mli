(** Force-directed scheduling (Paulin & Knight [23]).

    The classic data-dominated scheduling algorithm the paper cites: given
    a latency bound in control steps, operations are placed one at a time
    at the step of least "force", where the force measures how much an
    assignment worsens the expected concurrency (distribution graph) of its
    resource class — balancing resource usage over time so that fewer
    functional units suffice.

    This implementation works on one dataflow leaf (an acyclic operation
    set), without chaining (each operation occupies ⌈delay/clock⌉
    consecutive steps), which is the algorithm's native setting.  It is
    provided as an alternative to the chained list scheduler for
    experimentation on data-dominated designs; the [peak_usage] it reports
    bounds the number of units of each class the leaf needs. *)

module Ir := Impact_cdfg.Ir
module Module_library := Impact_modlib.Module_library

type placement = { fd_node : Ir.node_id; fd_step : int; fd_duration : int }

type result = {
  placements : placement list;
  latency : int;  (** control steps used *)
  peak_usage : (Module_library.fu_class * int) list;
      (** maximum same-class concurrency over the schedule *)
}

val schedule :
  Impact_cdfg.Analysis.t ->
  delay:Models.delay_model ->
  clock_ns:float ->
  ?latency:int ->
  Ir.node_id list ->
  result
(** [latency] defaults to the critical-path length (the minimum feasible);
    larger values give the balancer more room.
    @raise Invalid_argument if [latency] is below the critical path or the
    operation set has a cycle. *)

val asap :
  Impact_cdfg.Analysis.t ->
  delay:Models.delay_model ->
  clock_ns:float ->
  Ir.node_id list ->
  result
(** The as-soon-as-possible placement (no balancing), for comparison. *)
