(** The store tier: every artifact the synthesis pipeline persists, with the
    key that names it, the codec that encodes it, the validation that
    restores it and the policy that fills it.  {!Driver} calls in here and
    never touches {!Impact_store.Store} itself.

    Three tiers share one contract — a content {b key} digesting exactly the
    artifact's inputs, a {b tag codec} ([Marshal (tag, value)], a foreign
    tag reads as a miss), a {b restore/validate} step that turns a decoded
    entry back into a live value or rejects it as a miss, and a
    {b fingerprint} that the store oracle ([IMPACT_CHECK=1],
    {!Impact_util.Oracle}) compares against a cold recomputation.

    The options and result records live here because their fields are what
    the keys digest and the entries persist; {!Driver} re-exports them.  A
    {!request} (program, workload, options) is the one value every key,
    environment slot and tier call takes; {!Driver} builds one per call.

    Concurrency.  The only concurrent callers are the serve daemon's client
    threads; a sweep's pool domains call only the pure {!env_at} and
    {!enc_min}.  For those threads, one lock guards the program-digest
    table, one the store handles' environment slots, and one per slot makes
    concurrent requests for a program build its environment once.  The
    digest and environment counters are atomics, and so is an environment's
    published-memo count, which lets just one of the requests sharing it
    publish the traces tier. *)

module Types : sig
  type options = {
    clock_ns : float;
    style : Impact_sched.Scheduler.style;
    depth : int;  (** variable-depth sequence length *)
    max_candidates : int;  (** candidate sample per step *)
    seed : int;
    enable_restructure : bool;  (** ablation A1 *)
    max_iterations : int;
    probes : int;
        (** always 1, and read by nothing: the probe count of a deleted
            speculative search engine, kept because the benchmark harness
            ([perfbench/]) sets it.  The store fingerprint writes the
            literal [probes=1] where it rendered this field *)
    delta_reprice : bool;
        (** let schedule-keeping moves re-price only their resource footprint
            against the predecessor's energy ledger (bit-identical totals;
            [false] forces full re-estimation) *)
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

type request = private {
  rq_options : options;
  rq_program : Impact_cdfg.Graph.program;
  rq_workload : (string * int) list list;
  rq_program_digest : string Lazy.t;
  rq_workload_digest : string Lazy.t;
}
(** One synthesis request's identity: the program, its workload and the
    options.  Every key and environment slot below takes it.  Each digest
    is taken the first time a key needs it, so a request digests its
    workload at most once, and a storeless one not at all.  A request is
    built per call and used by the thread that built it; nothing is kept
    between requests. *)

val request :
  options:options -> Impact_cdfg.Graph.program -> workload:(string * int) list list -> request

type digest_stats = {
  dg_programs : int;  (** program digests computed *)
  dg_workloads : int;  (** workload digests computed *)
}

val digest_stats : unit -> digest_stats
(** Process-wide counts since start-up: one per {!request} whose workload
    digest is used, and one per program, whose digest is memoised on its
    physical identity for its life. *)

val options_fingerprint : options -> string
(** The trajectory-defining fields ([delta_reprice] is
    bit-identity-neutral and excluded).  Fields that
    are off by default add themselves only when enabled, so default keys
    stay byte-identical across versions. *)

val traces_key : request -> string
val design_key : request -> objective:Solution.objective -> laxity:float -> string
val sweep_key : request -> laxities:float list -> string

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
    it runs [cold], records [persist v] and returns [v]; write errors are
    swallowed.  Under [IMPACT_CHECK=1] a hit also runs [cold] and fails
    unless both fingerprints agree.  Without a store it is
    [cold ()]. *)

(** {1 The three tiers}

    [design] and [sweep] are find-or-compute; [traces] seeds a fresh
    estimation context and accumulates after each request.  [design] and
    [sweep] share the ["design"] namespace under different tags.  The
    behavioural run and schedule fragments are not tiers: a request
    simulates its workload (once per handle and program, see
    {!workload_env}) and schedules from the program's schedule plan,
    because reading either back from disk cost as much as recomputing it
    or more. *)

val seed_traces : ?store:Impact_store.Store.t -> request -> Impact_power.Estimate.ctx -> unit
(** Seeds a fresh estimation context from the ["traces"] tier.  Under
    [IMPACT_CHECK] every seeded entry is recomputed and asserted. *)

type design_entry = {
  de_binding : Impact_rtl.Binding.portable;
  de_restructured : Impact_rtl.Datapath.port list;
  de_stg : Impact_sched.Stg.t;
  de_stats : Search.stats;
  de_enc_min : float;
  de_enc : float;
  de_vdd : float;
  de_area : float;
  de_cost : float;
  de_ledger : (string * float) list;  (** {!Impact_power.Estimate.ledger_terms} *)
}
(** A stored design: the decision (binding, restructured ports, schedule,
    search stats) and the figures it priced to. *)

val design_tier : design_entry t
(** The tier of single stored designs, in the ["design"] namespace. *)

(** {1 The per-handle workload environment}

    What a request derives from (program, workload) alone: the behavioural
    run, the minimum ENC, the parallel reference area and the estimation
    context seeded from the ["traces"] tier.  A store handle keeps one per
    program digest, for the last workload, style, clock and [range_power]
    requested for that program (a request with others replaces it), and
    drops them with the handle.  Requests share its estimation context,
    whose memo values are pure functions of their keys. *)

type workload_env

val env_at : workload_env -> objective:Solution.objective -> laxity:float -> Solution.env
(** The request's environment: the shared one with the budget
    [laxity *. enc_min] and the objective. *)

val enc_min : workload_env -> float

val workload_env :
  ?store:Impact_store.Store.t ->
  request ->
  (Impact_store.Store.t option -> Solution.env * float) ->
  workload_env
(** [workload_env ~store:st r build] serves the handle's environment for
    the request's program when it was built for this workload and these
    options, and otherwise runs [build (Some st)] and keeps the result in
    the program's slot.  Without a store it is [build None], kept by no
    one.  Under [IMPACT_CHECK=1] a hit also
    runs [build None] and fails unless the digest of the run's logs, pass
    count, profile and pass outputs and the bits of the minimum ENC and the
    reference area agree. *)

type env_memo_stats = {
  em_builds : int;  (** environments built for a handle's memo *)
  em_hits : int;  (** requests served a memoised environment *)
}

val env_memo_stats : unit -> env_memo_stats
(** Process-wide counts since start-up. *)

val find_or_synthesize :
  ?store:Impact_store.Store.t ->
  request ->
  objective:Solution.objective ->
  laxity:float ->
  workload_env ->
  (Solution.env -> design) ->
  design
(** A hit replays the persisted decision through {!Solution.rebuild},
    which adopts the stored schedule as it is, and is rejected unless cost,
    area, ENC, Vdd and the sorted ledger terms priced against that schedule
    all match the recorded ones.  The cold path gets the
    request's environment ({!env_at}).  After either, with a store, the
    context's switching memos are merged into the ["traces"] tier when
    they grew since it was seeded or last published. *)

val find_or_sweep :
  ?store:Impact_store.Store.t ->
  request ->
  laxities:float list ->
  workload_env ->
  (unit -> sweep * ((Solution.objective * float) * design) list) ->
  sweep
(** Every unit design is restored as in {!find_or_synthesize}; points whose
    areas and supplies disagree with the rebuilt designs are rejected.  The
    cold path returns the sweep with its unit designs. *)

val sweep_units : float list -> (Solution.objective * float) list
(** The sweep's synthesis units: the laxity-1.0 area-optimized base first,
    then the area and power designs of every laxity. *)
