(** Deterministic, splittable pseudo-random number generator (splitmix64).

    Every stochastic component of the reproduction (workload generation,
    Monte-Carlo ENC walks) draws from one of these generators so that every
    experiment is exactly reproducible from its seed. *)

type t

val create : seed:int -> t

val split : t -> t
(** An independent stream derived from the current state; the parent
    advances. *)

val copy : t -> t

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound).  @raise Invalid_argument if
    [bound <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [lo, hi] inclusive. *)

val bool : t -> bool

val float : t -> float
(** Uniform in [0, 1). *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
