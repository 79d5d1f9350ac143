(** Growable array (used by the STG builder and other accumulators). *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val push : 'a t -> 'a -> int
(** Appends and returns the index of the new element. *)

val get : 'a t -> int -> 'a
val set : 'a t -> int -> 'a -> unit
val to_array : 'a t -> 'a array
val iteri : 'a t -> f:(int -> 'a -> unit) -> unit
val of_list : 'a list -> 'a t
