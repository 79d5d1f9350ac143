(** A sharded, mutex-guarded hash table for memo tables shared between
    domains.

    A single global lock serialises every memo lookup of a worker pool on
    one mutex; sharding by the key's hash spreads the contention over
    independent locks so lookups of distinct keys proceed concurrently.
    The intended use is idempotent memoisation: [find_or_add] runs the
    compute function {e outside} any lock, so two domains may race on the
    same key and both compute — they must produce equal values, and only
    the first published one is kept (and returned to both). *)

type ('a, 'b) t

val create : ?shards:int -> equal:('a -> 'a -> bool) -> int -> ('a, 'b) t
(** [create ?shards ~equal size_hint]: [shards] is rounded up to a power of
    two (default 16); [size_hint] sizes each shard's table.  Keys are
    hashed with {!hash} and compared with [equal] only on a hash match;
    [equal] must imply equal hashes. *)

val hash : 'a -> int
(** [Hashtbl.hash].  One hash picks both the shard and the bucket; a
    caller probing several tables with one key computes it once and passes
    it as [?hash] (it must be [hash key]). *)

val find_opt : ?hash:int -> ('a, 'b) t -> 'a -> 'b option

val find_or_add : ('a, 'b) t -> 'a -> (unit -> 'b) -> 'b
(** Check under the shard lock, compute outside it, publish under the
    lock.  When another domain published the key first, its value wins and
    is returned (so every caller agrees on one representative). *)

val add_if_absent : ?hash:int -> ('a, 'b) t -> 'a -> 'b -> 'b
(** Publish a precomputed value; returns the winning value. *)

val clear : ('a, 'b) t -> unit
(** Empties every shard back to its initial size. *)

val length : ('a, 'b) t -> int
(** Total entries across all shards. *)

val iter : ('a -> 'b -> unit) -> ('a, 'b) t -> unit
(** Iteration locks one shard at a time; concurrent additions to
    not-yet-visited shards may or may not be seen.  A one-shard table
    enumerates in [Hashtbl.iter]'s order for the same insertions. *)
