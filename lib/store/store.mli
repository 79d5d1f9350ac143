(** Content-addressed persistent object store, tiered by namespace.

    Maps a content key (the hex digest of a canonical key string) to an
    opaque payload on disk, with a write-through in-memory layer shared by
    every client of one handle.  Objects live in {e namespaces} (one per
    artifact kind — solved designs and sweeps, trace statistics), which
    share the envelope, eviction and memory-layer machinery but are
    counted separately by {!stats}.  The layer above (Driver) decides what
    a key canonically contains and what the payload encodes; this module
    owns durability only:

    - {b integrity}: every object is wrapped in an envelope carrying a
      format magic/version and a payload checksum; a short read, a flipped
      bit or a version skew makes {!find} return [None] (a miss), never a
      crash, and the damaged file is removed;
    - {b crash safety}: objects are written to a temp file and atomically
      renamed into place, so an interrupted writer can never leave a
      half-written object visible; an object is never modified after
      that, and a hit only reads it;
    - {b bounded size}: once the store exceeds its byte cap, writes evict
      objects in write order (oldest file mtime first, key order on ties;
      the object just written always ranks newest).  A handle tracks the
      on-disk bytes it knows of in a running tally and scans the store
      only when the tally passes the cap (see {!put}).

    Concurrent processes may share a directory: rename is atomic and every
    object is self-validating.  A handle sees other processes' writes in
    its byte tally at its next over-cap scan, so until then the directory
    may hold up to their bytes beyond the cap.  Within a process a handle
    is thread-safe (one mutex; the payloads move in and out as immutable
    strings). *)

type t

val default_dir : unit -> string
(** [IMPACT_CACHE_DIR] when set, else [$XDG_CACHE_HOME/impact], else
    [$HOME/.cache/impact], else [./.impact-cache]. *)

val default_max_bytes : int
(** 256 MiB, overridable per handle or via [IMPACT_CACHE_MAX_BYTES]. *)

val default_ns : string
(** The namespace used when [?ns] is omitted: ["design"], the solved-design
    tier. *)

val open_store : ?dir:string -> ?max_bytes:int -> ?mem_capacity:int -> unit -> t
(** Creates the directory layout if needed.  [max_bytes] defaults to
    [IMPACT_CACHE_MAX_BYTES] when set, {!default_max_bytes} otherwise;
    [mem_capacity] caps the in-memory entry count (default 128). *)

val dir : t -> string
val max_bytes : t -> int

val key : string -> string
(** The content address of a canonical key string (hex digest). *)

val find : ?ns:string -> t -> string -> string option
(** The payload stored under a key in the namespace, or [None] — unknown
    key, or an object that failed validation (truncated, checksum mismatch,
    foreign version) and was discarded.  A disk hit promotes the payload
    into the memory layer; no hit writes anything to disk. *)

val put : ?ns:string -> t -> string -> string -> unit
(** Persists (atomic rename) and caches in memory; then evicts objects,
    oldest write first, while the store exceeds its cap.  Write errors (permissions, full disk) are swallowed: the
    store is a cache, losing a write only costs the next run a recompute.

    The cap is checked against the handle's byte tally, not a scan: the
    handle's first write seeds the tally with one scan, and its writes
    (an overwrite net of the object it replaces), evictions and the
    corrupt-object removals of {!find} keep it current.  Only a write that
    takes the tally past the cap scans the store, re-reading the true
    total (other processes' objects included) before ranking; so a write
    costs the same whatever the store holds. *)

val clear : t -> int
(** Removes every object in every namespace (and the memory layer);
    returns the count.  The next write re-seeds the byte tally. *)

val gc : ?max_bytes:int -> t -> int
(** Evicts objects (oldest write first, key order on ties) until the store fits the cap (default: the handle's); returns the
    eviction count.  A full scan, whatever the byte tally says. *)

type gc_tier = {
  gt_ns : string;  (** namespace *)
  gt_evicted : int;  (** objects evicted from it *)
  gt_bytes : int;  (** envelope + payload bytes reclaimed from it *)
}

val gc_report : ?max_bytes:int -> t -> int * gc_tier list
(** {!gc} plus a per-namespace breakdown of what was reclaimed, sorted by
    namespace ([[]] when nothing was evicted). *)

type tier_stats = {
  ts_entries : int;  (** objects on disk in this namespace *)
  ts_bytes : int;  (** payload + envelope bytes on disk *)
  ts_hits : int;  (** this handle's lookup hits *)
  ts_misses : int;  (** this handle's lookup misses *)
  ts_writes : int;  (** objects persisted by this handle *)
}

type stats = {
  st_entries : int;  (** objects on disk, all namespaces *)
  st_bytes : int;  (** payload + envelope bytes on disk *)
  st_mem_entries : int;  (** objects in the memory layer *)
  st_hits : int;  (** this handle's lookup hits (memory or disk) *)
  st_misses : int;  (** this handle's lookup misses (absent or invalid) *)
  st_writes : int;  (** objects persisted by this handle *)
  st_evicted : int;  (** objects evicted by this handle *)
  st_tiers : (string * tier_stats) list;
      (** per-namespace breakdown, sorted by name; includes every namespace
          with disk objects or lookup/write activity on this handle *)
}

val stats : t -> stats
(** Scans every object on disk for the entry and byte counts. *)

val hits : ?ns:string -> t -> int
(** This handle's lookup hits in namespace [ns] (in all namespaces when
    omitted): a counter read, with no disk scan. *)

val human_bytes : int -> string
(** ["65.4 KiB"], not ["65389"] — binary units, one decimal (bare ["B"]
    under 1 KiB). *)
