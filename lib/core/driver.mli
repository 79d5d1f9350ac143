(** The IMPACT synthesis driver: the paper's Figure-7 pipeline.

    1. Simulate the behavior on the workload (traces and profile).
    2. Build the parallel initial architecture, scheduled with the designer
       clock.
    3. Improve it iteratively under the laxity-derived ENC budget.
    4. Scale Vdd into the remaining slack.

    [figure13] reproduces the paper's evaluation: for each laxity factor an
    area-optimized design (A-Power: the same design Vdd-scaled) and a
    power-optimized design (I-Power, I-Area), normalized to the laxity-1.0
    area-optimized design at 5 V.

    With a [store], the design and the sweep are each find-or-compute
    against a {!Tier}: warm answers are bit-identical to cold ones, and
    [IMPACT_STORE_CHECK=1] recomputes each one cold and asserts it.
    [synthesize] and [figure13] then take the workload environment (run,
    minimum ENC, reference area, estimation context) from the store
    handle's memo ({!Tier.workload_env}), so requests after the first on
    one handle do not simulate again. *)

include module type of struct
  include Tier.Types
end
(** The synthesis options and the design and sweep records
    ({!Tier.Types}). *)

val default_options : options

val options_fingerprint : options -> string
(** {!Tier.options_fingerprint}: the option fields the store keys digest. *)

val resolved_jobs : options -> int
(** The effective concurrency ([jobs], or the auto-detected count when
    [jobs = 0]). *)

val build_env :
  ?options:options ->
  ?store:Impact_store.Store.t ->
  ?workload_id:Tier.workload_id ->
  Impact_cdfg.Graph.program ->
  workload:(string * int) list list ->
  objective:Solution.objective ->
  laxity:float ->
  Solution.env * float
(** Simulates the workload, builds the estimation context and prices the
    ENC budget; returns the environment and the minimum ENC.  [synthesize]
    is [build_env] plus the search — exposing the environment alone lets
    tools (the CLI's [lint]) evaluate and verify solutions without
    searching.  It always simulates, and builds afresh, never from the
    handle's memo; with a [store], the estimation context is seeded from
    the ["traces"] tier. *)

val restructure_all : design -> design
(** Applies the Huffman restructuring move to every restructurable network
    of the design, keeping the schedule and binding, so the comparison
    isolates the tree shapes (ablation A1). *)

(** {1 Store keys}

    The content keys the store-backed calls consult, re-exported from
    {!Tier}.  The traces key digests only the (program, workload) pair,
    so any objective, laxity or options reuse it.

    A [?workload_id] here and on {!build_env}, {!synthesize} and
    {!figure13} names the workload by a {!Tier.workload_id} the caller
    already holds for this very list, so a request that builds its own key
    (serve's flight key) and then synthesizes digests its workload once.
    An id naming another list is ignored. *)

val design_key :
  ?workload_id:Tier.workload_id ->
  options:options ->
  Impact_cdfg.Graph.program ->
  workload:(string * int) list list ->
  objective:Solution.objective ->
  laxity:float ->
  string

val sweep_key :
  ?workload_id:Tier.workload_id ->
  options:options ->
  Impact_cdfg.Graph.program ->
  workload:(string * int) list list ->
  laxities:float list ->
  string

val traces_key : Impact_cdfg.Graph.program -> workload:(string * int) list list -> string

val synthesize :
  ?options:options ->
  ?pool:Impact_util.Parallel.pool ->
  ?cache:Solution.cache ->
  ?store:Impact_store.Store.t ->
  ?workload_id:Tier.workload_id ->
  Impact_cdfg.Graph.program ->
  workload:(string * int) list list ->
  objective:Solution.objective ->
  laxity:float ->
  unit ->
  design
(** [build_env] plus the search.  A supplied [pool] or [cache] replaces the
    one [options.jobs] would create and the signature cache (with its
    fragment cache) that is otherwise always created; sharing them across
    calls is only sound when the program, workload, clock and style agree.
    With a [store], the environment comes from the handle's memo, and a
    ["design"]-tier hit replays the persisted decision instead of
    searching. *)

val measure :
  design ->
  Impact_cdfg.Graph.program ->
  workload:(string * int) list list ->
  ?vdd:float ->
  unit ->
  Impact_power.Measure.t
(** Detailed measurement at the design's scaled supply (or an explicit
    one). *)

val figure13 :
  ?options:options ->
  ?pool:Impact_util.Parallel.pool ->
  ?cache:Solution.cache ->
  ?store:Impact_store.Store.t ->
  ?workload_id:Tier.workload_id ->
  Impact_cdfg.Graph.program ->
  workload:(string * int) list list ->
  laxities:float list ->
  sweep
(** The whole sweep shares one behavioral simulation, estimation context,
    signature cache and worker pool: each point re-prices cached candidate
    builds against its own ENC budget and objective.  A warm [store] hit
    skips both the searches and the power measurements: the persisted
    designs are rebuilt and cross-checked, the measured ratios restored. *)
