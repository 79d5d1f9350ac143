(** Fixed-width two's-complement bit vectors.

    All datapath values in the IMPACT model are fixed-width words (the paper
    synthesizes 8/16-bit datapaths).  A [t] packs the payload into an OCaml
    [int] masked to [width] bits; arithmetic wraps modulo [2^width].  Widths
    are limited to 1..62 bits. *)

type t

val max_width : int
(** Largest supported width (62). *)

val check_width : int -> unit
(** @raise Invalid_argument if the width is outside 1..62. *)

val mask : int -> int
(** [mask width]: the low [width] bits set. *)

val signed : width:int -> int -> int
(** Two's-complement interpretation of a raw [width]-bit payload. *)

val make : width:int -> int -> t
(** [make ~width v] truncates [v] to [width] bits.  Negative [v] is encoded
    in two's complement.  @raise Invalid_argument if [width] is out of
    range. *)

val zero : width:int -> t
val one : width:int -> t

val of_bool : bool -> t
(** 1-bit vector: [true] is 1, [false] is 0. *)

val width : t -> int

val bits : t -> int
(** Raw unsigned payload, in [0, 2^width). *)

val to_unsigned : t -> int

val to_signed : t -> int
(** Two's-complement interpretation. *)

val to_bool : t -> bool
(** [true] iff any bit is set. *)

val equal : t -> t -> bool
val compare : t -> t -> int

val hamming : t -> t -> int
(** Number of differing bits; the widths must agree.
    @raise Invalid_argument on width mismatch. *)

val popcount : t -> int

val popcount_bits : int -> int
(** [popcount] of a raw payload (a non-negative int below [2^62]). *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val neg : t -> t
val logand : t -> t -> t
val logor : t -> t -> t
val logxor : t -> t -> t
val lognot : t -> t
val shift_left : t -> int -> t
val shift_right_arith : t -> int -> t
val shift_right_logical : t -> int -> t

val lt : t -> t -> bool
(** Signed comparison; widths must agree. *)

val le : t -> t -> bool
val gt : t -> t -> bool
val ge : t -> t -> bool

val resize : width:int -> t -> t
(** Sign-extends or truncates to the new width. *)

val pp : Format.formatter -> t -> unit
(** Prints the signed value with the width as suffix, e.g. [-3w16]. *)

val to_string : t -> string
