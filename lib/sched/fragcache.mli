(** A memo table of scheduled STG fragments, keyed by region content digest.

    The scheduler consults it per region-tree node: a region whose digest —
    structure plus every per-node delay/resource model value the leaf
    scheduler reads — is unchanged since an earlier schedule reuses its
    fragment verbatim instead of re-running list scheduling, so a Heavy
    move's reschedule costs work proportional to the regions it actually
    perturbs.  Reuse is sound by construction (the digest covers every
    scheduler input that can vary between calls); [IMPACT_SCHED_CHECK=1]
    additionally recomputes every spliced schedule cold and asserts
    bit-identity ({!Scheduler.schedule}).

    A cache must only be shared between schedules of one program (region
    structure and guard context are program-wide inputs the per-region
    digest assumes fixed).  It lives in memory only, for one request or
    one sweep.

    The table is {!Impact_util.Shardtbl}-sharded and safe to share across
    domains (the points of a pooled Figure-13 sweep).

    Fragments are mutable values; the cache stores frozen
    {!Stg.portable_frag} snapshots and {!find} materialises a fresh copy
    per hit, so composition never mutates a cache entry. *)

type t

val create : ?context:string -> unit -> t
(** An empty cache.  [context] is unused: nothing outside the process
    shares a cache, so nothing needs a program name in its keys.  It is
    accepted because the benchmark harness ([perfbench/]) passes it. *)

val find : t -> string -> Stg.frag option
(** A fresh mutable materialisation of the fragment cached under the key,
    or [None]. *)

val add : t -> string -> Stg.frag -> unit
(** Snapshots [frag] (safe against later in-place composition) and files it
    under the key, unless the key is already filed. *)

val counters : t -> int * int
(** [(reused, scheduled)]: fragments served from the cache vs computed and
    filed, cumulative over the cache's lifetime.  With concurrent
    schedulers the split between the two is timing-dependent (like the
    signature cache's hit counter); values never are. *)

val entries : t -> int
