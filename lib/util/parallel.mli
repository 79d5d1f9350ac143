(** A small fixed-size [Domain]-based worker pool.

    The pool exists so the speculative search can run its depth probes,
    and a Figure-13 sweep its points, concurrently.  [map] preserves list
    order, so a caller that picks the best element by an order-sensitive
    tie-break gets results bit-identical to a sequential [List.map].

    A pool of [jobs] means a total concurrency of [jobs]: [jobs - 1] worker
    domains plus the calling domain, which participates in every [map].
    Work items must therefore be domain-safe (the power-estimation memo
    tables are mutex-guarded for exactly this reason). *)

type pool

val detected_domains : unit -> int
(** [Domain.recommended_domain_count ()] clamped to at least 1 — hardware
    detection only, never the [IMPACT_JOBS] override. *)

val num_domains : unit -> int
(** Effective parallelism: the [IMPACT_JOBS] environment variable when set
    to a positive integer, otherwise {!detected_domains}.  When the
    override differs from detection, a diagnostic is printed to stderr once
    per distinct value. *)

val create : ?jobs:int -> unit -> pool
(** [create ~jobs ()] spawns [jobs - 1] worker domains ([jobs] defaults to
    [num_domains ()]; values below 1 are clamped to 1, meaning a pool that
    runs everything on the calling domain). *)

val jobs : pool -> int
(** The pool's total concurrency (workers + caller). *)

val map : pool -> ('a -> 'b) -> 'a list -> 'b list
(** Order-preserving parallel map.  The calling domain works alongside the
    pool's domains.  If [f] raises on one or more elements, all elements
    still run to completion and the exception of the smallest-index failing
    element is re-raised.  After [shutdown] the pool degrades to a plain
    sequential [List.map]. *)

val map_stealing : pool -> ?chunk:int -> ('a -> 'b) -> 'a list -> 'b list * int
(** [map_stealing pool ~chunk f xs] is an order-preserving parallel map
    over contiguous chunks of [chunk] items (default 1).  Chunks are dealt
    round-robin to per-participant deques; a participant that drains its
    own deque steals from the back of its neighbours', so skewed per-item
    costs cannot leave domains idle behind a static partition.  Returns the
    results together with the number of steals that occurred (a
    scheduling diagnostic — the results themselves are bit-identical to
    [List.map f xs] regardless of stealing).  Exception semantics match
    {!map}.  Degrades to sequential (0 steals) on a closed or
    single-domain pool. *)

val physical_parallelism : pool -> int
(** [min (jobs pool) (detected_domains ())] — how many of the pool's
    domains can actually run simultaneously on this machine.  A pool wider
    than the hardware oversubscribes cores: fanning cheap work out to it
    only adds contention. *)

val now_s : unit -> float
(** Wall-clock seconds ([Unix.gettimeofday]), the one clock callers time
    work items with. *)

val shutdown : pool -> unit
(** Joins the worker domains.  Idempotent. *)

val with_pool : ?jobs:int -> (pool -> 'a) -> 'a
(** [with_pool f] creates a pool, runs [f], and always shuts the pool
    down. *)
