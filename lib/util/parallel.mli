(** A small fixed-size [Domain]-based worker pool.

    The pool exists so a Figure-13 sweep can synthesize and measure its
    points, and the bench harness run its sections, concurrently.  [map]
    preserves list order, so its results are bit-identical to a
    sequential [List.map].

    A pool of [jobs] means a total concurrency of [jobs]: [jobs - 1] worker
    domains plus the calling domain, which participates in every [map].
    Work items must therefore be domain-safe (the power-estimation memo
    tables are mutex-guarded for exactly this reason). *)

type pool

val detected_domains : unit -> int
(** [Domain.recommended_domain_count ()] clamped to at least 1. *)

val create : ?jobs:int -> unit -> pool
(** [create ~jobs ()] spawns [jobs - 1] worker domains ([jobs] defaults to
    [detected_domains ()]; values below 1 are clamped to 1, meaning a pool
    that runs everything on the calling domain). *)

val jobs : pool -> int
(** The pool's total concurrency (workers + caller). *)

val map : pool -> ('a -> 'b) -> 'a list -> 'b list
(** Order-preserving parallel map.  The calling domain works alongside the
    pool's domains.  If [f] raises on one or more elements, all elements
    still run to completion and the exception of the smallest-index failing
    element is re-raised.  After [shutdown] the pool degrades to a plain
    sequential [List.map]. *)

val physical_parallelism : pool -> int
(** [min (jobs pool) (detected_domains ())] — how many of the pool's
    domains can actually run simultaneously on this machine.  A pool wider
    than the hardware oversubscribes cores: fanning cheap work out to it
    only adds contention. *)

val shutdown : pool -> unit
(** Joins the worker domains.  Idempotent. *)

val with_pool : ?jobs:int -> (pool -> 'a) -> 'a
(** [with_pool f] creates a pool, runs [f], and always shuts the pool
    down. *)

val with_jobs : int -> (pool option -> 'a) -> 'a
(** [with_jobs n f] reads [n] as a [--jobs] flag does: [0] means
    {!detected_domains}, anything else [max 1 n].  [f] gets a pool of that
    many jobs, always shut down after, or [None] when that comes to one. *)
