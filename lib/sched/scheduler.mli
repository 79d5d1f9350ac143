(** The scheduler: region tree → state transition graph.

    Two scheduling styles are provided:

    - [Wavesched]: the scheduler used by IMPACT (after Wavesched [18]).
      Loop-free conditionals are {e flattened} — their operations execute
      speculatively inside the enclosing dataflow leaf and Sel muxes pick
      the live branch, so a whole if-cascade can chain within one state
      (Figures 8–10).  The loop condition for iteration [k+1] is folded into
      the iteration-[k] latch state together with the loop-merge register
      writes, so the back edge re-enters the body directly and an iteration
      costs only the body states (the paper's implicit loop unrolling /
      concurrent loop optimization via ENC minimisation).  Independent
      sibling regions are composed as a synchronous product and execute
      concurrently (concurrent loop optimisation).

    - [Baseline]: a loop-directed sequential scheduler in the style of
      [9]/[17]: every basic block is scheduled separately, conditionals
      fork to disjoint states, the loop condition is a separate header
      re-entered every iteration, and sibling regions never overlap.

    When two fragments scheduled in parallel would share a functional unit
    the product is abandoned and the fragments are serialised — sharing
    across concurrent regions trades cycles for area, and the iterative
    improvement engine sees that cost through the ENC constraint. *)

type style = Wavesched | Baseline

type config = {
  clock_ns : float;
  flatten_ifs : bool;
  fold_loop_cond : bool;
  parallel_regions : bool;
  max_product_states : int;
}

val config_of_style : style -> clock_ns:float -> config

val schedule :
  ?frags:Fragcache.t ->
  config ->
  Impact_cdfg.Graph.program ->
  delay:Models.delay_model ->
  res:Models.resource_model ->
  Stg.t
(** Reads the {e schedule plan} of [(program, config)]: everything the
    scheduler needs that depends on the program alone — the flattened
    region tree, each sequence's sibling dependence groups, each leaf's
    specification array with its in-leaf predecessor/successor arrays and
    extern-guard flags, and every node's effective guard.  The plan is
    built on first use, never changes, and lives as long as the program:
    it is kept in an ephemeron table keyed by the physical identity of the
    program's graph, so no number of interleaved programs evicts it and it
    is collected with its program.  A reschedule then only runs list
    scheduling over the plan's leaves, reading the caller's model
    closures, and composes the fragments.

    [frags] is accepted and ignored: it is read only by the benchmark
    harness ([perfbench/]), which still passes a {!Fragcache.t}.

    Under [IMPACT_CHECK] (the schedule oracle, {!Impact_util.Oracle}),
    every schedule is recomputed by {!schedule_reference} and compared by
    {!Stg.signature}, and the planned STG passes the [stg/splice-*] checks
    of {!Check} — a divergence raises [Failure]. *)

val schedule_reference :
  config ->
  Impact_cdfg.Graph.program ->
  delay:Models.delay_model ->
  res:Models.resource_model ->
  Stg.t
(** The cold reference: the schedule computed straight from the region
    tree, without the plan — a fresh {!Impact_cdfg.Analysis.t}, sibling
    dependence levels and leaf arrays recomputed per call, the models read
    through the caller's closures.  Only the composition of finished
    fragments is shared with {!schedule}, so comparing the two checks
    everything the plan precomputes. *)

val min_enc_schedule :
  style ->
  clock_ns:float ->
  Impact_cdfg.Graph.program ->
  Impact_modlib.Module_library.t ->
  Stg.t
(** Schedule with the fully parallel initial architecture (fastest modules,
    no sharing): the schedule whose ENC is the minimum achievable with the
    given library, used to define the laxity factor. *)
