(** The store tier: every artifact the synthesis pipeline persists, with the
    key that names it, the codec that encodes it, the validation that
    restores it and the policy that fills it.  {!Driver} calls in here and
    never touches {!Impact_store.Store} itself.

    Six tiers share one contract — a content {b key} digesting exactly the
    artifact's inputs, a {b tag codec} ([Marshal (tag, value)], a foreign
    tag reads as a miss), a {b restore/validate} step that turns a decoded
    entry back into a live value or rejects it as a miss, a {b fingerprint}
    that [IMPACT_STORE_CHECK=1] compares against a cold recomputation, and
    the measured recompute {b cost} recorded for cost-per-byte eviction.

    The request and result records live here because their fields are what
    the keys digest and the entries persist; {!Driver} re-exports them. *)

module Types : sig
  type options = {
    clock_ns : float;
    style : Impact_sched.Scheduler.style;
    depth : int;  (** variable-depth sequence length *)
    max_candidates : int;  (** candidate sample per step *)
    seed : int;
    enable_restructure : bool;  (** ablation A1 *)
    max_iterations : int;
    jobs : int;
        (** evaluation concurrency; [1] is fully sequential, [0] auto-detects
            via {!Impact_util.Parallel.num_domains} (which honours the
            [IMPACT_JOBS] environment variable) *)
    probes : int;
        (** speculative depth probes per search iteration
            ({!Search.default_num_probes} by default; [1] selects the flat
            single-trajectory search).  Part of the search definition — it
            changes the trajectory — and deliberately independent of [jobs]:
            any probe count gives bit-identical results at any job count *)
    delta_reprice : bool;
        (** let schedule-keeping moves re-price only their resource footprint
            against the predecessor's energy ledger (bit-identical totals;
            [false] forces full re-estimation) *)
    sweep_parallel : bool;
        (** fan {!Driver.figure13}'s laxity points out over the worker pool (coarse
            grain, bit-identical to the sequential sweep); candidate-level
            fan-out inside each point stays subject to the granularity gate *)
    range_power : bool;
        (** price width-scaled switching terms at the
            {!Impact_cdfg.Ranges} effective widths instead of the declared
            ones.  Off by default — it changes estimates, and therefore
            search trajectories, so it participates in the store
            fingerprint (only when enabled; disabled keys are unchanged) *)
  }

  type design = {
    d_solution : Solution.t;
    d_objective : Solution.objective;
    d_laxity : float;
    d_enc_min : float;
    d_enc_budget : float;
    d_search : Search.stats;
    d_env : Solution.env;
  }

  type sweep_point = {
    sp_laxity : float;
    sp_a_power : float;  (** area-optimized, Vdd-scaled, normalized *)
    sp_i_power : float;  (** power-optimized, normalized *)
    sp_i_area : float;  (** power-optimized area, normalized *)
    sp_a_vdd : float;
    sp_i_vdd : float;
    sp_area_design : design;
    sp_power_design : design;
  }

  type sweep = {
    sw_base_power : float;  (** absolute, laxity-1 area-opt at 5 V *)
    sw_base_area : float;
    sw_points : sweep_point list;
  }
end

include module type of struct
  include Types
end

(** {1 Keys}

    Every key starts with one prefix naming the store format and its
    version; bumping the version renames every object. *)

val options_fingerprint : options -> string
(** The trajectory-defining fields ([jobs], [delta_reprice] and
    [sweep_parallel] are bit-identity-neutral and excluded).  Fields that
    are off by default add themselves only when enabled, so default keys
    stay byte-identical across versions. *)

val sim_key : Impact_cdfg.Graph.program -> workload:(string * int) list list -> string
val traces_key : Impact_cdfg.Graph.program -> workload:(string * int) list list -> string
val lib_key : unit -> string

val frag_context : Impact_cdfg.Graph.program -> string
(** The prefix of every ["frag"]-tier fragment key of the program. *)

val design_key :
  options:options ->
  Impact_cdfg.Graph.program ->
  workload:(string * int) list list ->
  objective:Solution.objective ->
  laxity:float ->
  string

val sweep_key :
  options:options ->
  Impact_cdfg.Graph.program ->
  workload:(string * int) list list ->
  laxities:float list ->
  string

(** {1 The tier contract} *)

type 'e t
(** A tier whose entries have type ['e]: a store namespace plus the tag its
    payloads carry. *)

val make : ns:string -> tag:string -> 'e t

val encode : 'e t -> 'e -> string
(** [Marshal.to_string (tag, entry) []]. *)

val decode : 'e t -> string -> 'e option
(** [None] for a malformed payload or one carrying another tag. *)

val find_or_compute :
  ?store:Impact_store.Store.t ->
  'e t ->
  key:(unit -> string) ->
  restore:('e -> 'v option) ->
  persist:('v -> 'e) ->
  fingerprint:('v -> string) ->
  (unit -> 'v) ->
  'v
(** [find_or_compute ?store tier ~key ~restore ~persist ~fingerprint cold]
    serves the value stored under [key ()] when it decodes and [restore]
    accepts it (an exception in [restore] also reads as a miss).  Otherwise
    it runs [cold], records [persist v] with the measured time as its cost,
    and returns [v]; write errors are swallowed.  Under
    [IMPACT_STORE_CHECK=1] a hit also runs [cold] and fails unless both
    fingerprints agree.  Without a store it is [cold ()]. *)

(** {1 The six tiers}

    [sim], [design] and [sweep] are find-or-compute; [traces] seeds a fresh
    estimation context and accumulates after each request; [lib] is
    ensured before each design or sweep request; [frag] backs the
    scheduler's fragment cache. *)

val find_or_simulate :
  ?store:Impact_store.Store.t ->
  Impact_cdfg.Graph.program ->
  workload:(string * int) list list ->
  Impact_sim.Sim.run
(** The behavioral simulation run.  A persisted run is re-attached to the
    program and rejected when its shape does not match the workload. *)

val seed_traces :
  ?store:Impact_store.Store.t ->
  Impact_cdfg.Graph.program ->
  workload:(string * int) list list ->
  Impact_power.Estimate.ctx ->
  unit
(** Seeds a fresh estimation context from the ["traces"] tier.  Under
    [IMPACT_STORE_CHECK] every seeded entry is recomputed and asserted. *)

val frags : ?store:Impact_store.Store.t -> Impact_cdfg.Graph.program -> Impact_sched.Fragcache.t
(** A fragment cache for the program, backed by the ["frag"] tier when a
    store is given. *)

val find_or_synthesize :
  ?store:Impact_store.Store.t ->
  options:options ->
  Impact_cdfg.Graph.program ->
  workload:(string * int) list list ->
  objective:Solution.objective ->
  laxity:float ->
  Solution.env ->
  enc_min:float ->
  (unit -> design) ->
  design
(** A hit replays the persisted decision through {!Solution.rebuild} and is
    rejected unless cost, area, ENC, Vdd, schedule signature and sorted
    ledger terms all match the recorded ones. *)

val find_or_sweep :
  ?store:Impact_store.Store.t ->
  options:options ->
  Impact_cdfg.Graph.program ->
  workload:(string * int) list list ->
  laxities:float list ->
  Solution.env ->
  enc_min:float ->
  (unit -> sweep * ((Solution.objective * float) * design) list) ->
  sweep
(** Every unit design is restored as in {!find_or_synthesize}; points whose
    areas and supplies disagree with the rebuilt designs are rejected.  The
    cold path returns the sweep with its unit designs. *)

val sweep_units : float list -> (Solution.objective * float) list
(** The sweep's synthesis units: the laxity-1.0 area-optimized base first,
    then the area and power designs of every laxity. *)
