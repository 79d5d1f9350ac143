(** A sharded, mutex-guarded hash table for memo tables shared between
    domains.

    A single global lock serialises every memo lookup of a worker pool on
    one mutex; sharding by the key's hash (16 shards) spreads the
    contention over independent locks so lookups of distinct keys proceed
    concurrently.  The intended use is idempotent memoisation: a caller
    looks a key up with [find_opt], computes a miss {e outside} any lock
    and publishes it with [add_if_absent], so two domains may race on the
    same key and both compute — they must produce equal values, and only
    the first published one is kept (and returned to both).

    Callers.  The tables are the estimator's trace and schedule-level
    memos ([Estimate.ctx]) and the search's signature cache
    ([Solution.cache]).  Two callers share them concurrently:
    [Driver.figure13]'s [--jobs] point fan-out, whose pool domains share
    the sweep's one estimation context and one signature cache, and the
    serve daemon's client threads, which share one workload environment's
    estimation context. *)

type ('a, 'b) t

val create : equal:('a -> 'a -> bool) -> int -> ('a, 'b) t
(** [create ~equal size_hint]: [size_hint] sizes the table across its
    shards.  Keys are hashed with {!hash} and compared with [equal] only on
    a hash match; [equal] must imply equal hashes. *)

val hash : 'a -> int
(** [Hashtbl.hash].  One hash picks both the shard and the bucket; a
    caller probing and then publishing one key computes it once and passes
    it as [?hash] (it must be [hash key]). *)

val find_opt : ?hash:int -> ('a, 'b) t -> 'a -> 'b option

val add_if_absent : ?hash:int -> ('a, 'b) t -> 'a -> 'b -> 'b
(** Publish a value under the shard lock unless the key is already filed;
    returns the winning value (so every caller agrees on one
    representative). *)

val length : ('a, 'b) t -> int
(** Total entries across all shards. *)

val iter : ('a -> 'b -> unit) -> ('a, 'b) t -> unit
(** Iteration locks one shard at a time; concurrent additions to
    not-yet-visited shards may or may not be seen.  The order is
    unspecified: a caller that needs a canonical order sorts. *)
