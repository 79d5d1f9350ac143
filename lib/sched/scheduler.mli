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
  fds_leaves : bool;
      (** schedule pure dataflow leaves with force-directed scheduling [23]
          instead of the chained list scheduler (no chaining; balances
          same-class concurrency).  Like the original algorithm this is a
          pre-binding scheduler: it ignores functional-unit sharing, so use
          it with the parallel architecture (its peak-usage output is what
          tells the binder how few units suffice). *)
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
    region tree and its node order, each cacheable region's key prefix
    (format byte, config fingerprint, tag and structure bytes), each
    sequence's sibling dependence groups, each leaf's specification array
    with its in-leaf predecessor/successor arrays and extern-guard flags,
    and every node's effective guard.  The plan is built on first use,
    never changes, and lives as long as the program: it is kept in an
    ephemeron table keyed by the physical identity of the program's graph,
    so no number of interleaved programs evicts it and it is collected
    with its program.  A reschedule then only tabulates the
    models, appends each region's model bytes to its key prefix, and runs
    list scheduling.

    With [frags], per-region fragments are memoised by content key
    ({!Fragcache}): a region whose structure and per-operation model values
    are unchanged since an earlier schedule splices its prior fragment
    verbatim instead of re-running leaf scheduling, so rescheduling after a
    move costs work proportional to the regions the move perturbs.  The
    composition (sequencing, forks, loop wiring, parallel products) is
    recomputed every call, and the key covers every input leaf
    scheduling reads, so the result is bit-identical to a cache-less
    schedule.  The cache must only be reused across calls that agree on the
    program (bind its identity into the cache's context).

    With the [IMPACT_SCHED_CHECK] environment variable set (to anything but
    [0] or the empty string), every spliced schedule is recomputed cold by
    {!schedule_reference} and compared by {!Stg.signature}, every
    cache-served fragment is
    structurally validated, and the spliced STG passes the
    [stg/splice-*] checks of {!Check} — a divergence raises [Failure]. *)

val schedule_reference :
  config ->
  Impact_cdfg.Graph.program ->
  delay:Models.delay_model ->
  res:Models.resource_model ->
  Stg.t
(** The cold reference: the schedule computed straight from the region
    tree, without the plan and without a fragment cache — a fresh
    {!Impact_cdfg.Analysis.t}, sibling dependence levels and leaf arrays
    recomputed per call, the models read through the caller's closures.
    Only the composition of finished fragments is shared with {!schedule},
    so comparing the two checks everything the plan precomputes. *)

val region_report :
  config ->
  Impact_cdfg.Graph.program ->
  delay:Models.delay_model ->
  res:Models.resource_model ->
  (Impact_cdfg.Ir.node_id list * string) list
(** The cacheable regions of the (flattened) region tree with their current
    fragment keys, outermost first.  Two reports over the same program
    differ exactly at the regions whose fragments a reschedule would
    recompute; the footprint-classification tests assert those regions all
    intersect the operations served by the move's resource footprint. *)

val min_enc_schedule :
  style ->
  clock_ns:float ->
  Impact_cdfg.Graph.program ->
  Impact_modlib.Module_library.t ->
  Stg.t
(** Schedule with the fully parallel initial architecture (fastest modules,
    no sharing): the schedule whose ENC is the minimum achievable with the
    given library, used to define the laxity factor. *)
