(** List scheduling of one dataflow leaf into a chain of states.

    A leaf is an unordered set of firing specifications (operation nodes,
    plus loop-merge init/back register writes) whose mutual ordering is
    given only by data edges.  The scheduler packs them into consecutive
    states, chaining operations within the clock period (each chained stage
    pays the library's 10% delay overhead, and every operand pays its input
    multiplexer path), spilling to the next state when the period or a
    functional unit is exhausted, and spreading multi-cycle operations over
    several states.

    Two operations bound to the same functional unit may share a state only
    when they are mutually exclusive (Section 3.2.3); both firings then
    carry their effective guards, which must be register-available. *)

module Ir := Impact_cdfg.Ir

type spec = { spec_node : Ir.node_id; spec_phase : Stg.phase }

val normal : Ir.node_id -> spec
val merge_init : Ir.node_id -> spec
val merge_back : Ir.node_id -> spec

type plan
(** A leaf's program-static facts: its specifications, their in-leaf data
    predecessors and successors, effective guards and whether each guard is
    steerable from registers.  Immutable, so one plan may be run by any
    number of domains. *)

val prepare : Impact_cdfg.Analysis.t -> spec list -> plan
(** @raise Invalid_argument if a node appears twice. *)

val run :
  plan ->
  delay:Models.delay_model ->
  res:Models.resource_model ->
  clock_ns:float ->
  Stg.state list
(** List-schedules a prepared leaf under the given models. *)

val schedule :
  Impact_cdfg.Analysis.t ->
  delay:Models.delay_model ->
  res:Models.resource_model ->
  clock_ns:float ->
  spec list ->
  Stg.state list
(** [run (prepare analysis specs)].  Always returns at least one state (an
    empty one for an empty leaf).
    @raise Failure if some specification cannot be scheduled (which would
    indicate an inconsistent delay model, e.g. negative latency). *)
