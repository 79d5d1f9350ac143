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
    digest assumes fixed); callers bind the program identity into
    [context].

    The table is {!Impact_util.Shardtbl}-sharded and safe to share across
    domains.  {!fork}/{!commit} mirror the estimator-ledger replica
    pattern: a forked view reads through a private overlay, new fragments
    land in the overlay only, and the coordinator publishes them at its
    deterministic merge point.

    Fragments are mutable values; the cache stores frozen
    {!Stg.portable_frag} snapshots and {!find} materialises a fresh copy
    per hit, so composition never mutates a cache entry. *)

type t

type backing = {
  bk_find : string -> string option;
  bk_put : string -> cost_ns:int -> string -> unit;
}
(** Persistence callbacks (the driver wires these to the store's ["frag"]
    namespace; the scheduler layer has no store dependency).  Keys are
    [context ^ "\000" ^ key], built only at this boundary (the in-memory
    tables hold the key alone); payloads are opaque.  [cost_ns] is the
    measured recompute cost of the fragment, for the store's cost-per-byte
    eviction. *)

val create : ?context:string -> ?backing:backing -> unit -> t
(** [context] is prepended to every key — bind the program digest (and any
    other schedule-wide identity) here.  With [backing], misses fall
    through to persistent lookup and new fragments are written back. *)

val context : t -> string

val fork : t -> t
(** A probe-private view over the same shared table, counters and backing:
    reads fall through a fresh overlay, writes land in the overlay only.
    Forking a fork shares the same underlying table with a fresh overlay. *)

val commit : t -> unit
(** Publishes a forked view's overlay into the shared table and the
    backing, then empties the overlay.  Entries are pure functions of
    their keys, so publication order never changes a value.  Only entries
    that win their shared-table insert are written to the backing: a key
    another probe already published is persisted once, and entries that
    came from the backing are never written back.  No-op on an unforked
    cache. *)

val find : t -> string -> Stg.frag option
(** A fresh mutable materialisation of the fragment cached under
    (context, key), or [None].  Disk-sourced snapshots are bounds-validated
    ({!Stg.portable_frag_wf}); corrupt payloads read as misses. *)

val add : t -> string -> cost_ns:int -> Stg.frag -> unit
(** Snapshots [frag] (safe against later in-place composition) and files it
    under (context, key) with its measured recompute cost.  On an unforked
    cache it writes through to the backing unless the key was already
    filed. *)

val counters : t -> int * int
(** [(reused, scheduled)]: fragments served from the cache vs computed and
    filed, cumulative over the cache's lifetime and shared across forks.
    With concurrent schedulers the split between the two is
    timing-dependent (like the signature cache's hit counter); values
    never are. *)

val entries : t -> int
