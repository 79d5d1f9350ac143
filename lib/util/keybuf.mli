(** Compact, self-delimiting binary memo keys.

    Every field is written so that no two different field sequences encode
    to the same bytes: ints are zigzag LEB128 varints, floats their raw
    64-bit pattern ([0.0] and [-0.0] differ), strings and lists carry a
    length prefix.  Callers that emit a variable number of items write the
    count first ({!list}) or a distinguishing {!tag} byte, so the whole key
    stays injective in the value it describes.  Keys are only compared and
    hashed, never decoded. *)

type t

val create : int -> t
(** An empty key with the given initial capacity in bytes. *)

val contents : t -> string

val length : t -> int
(** Bytes written so far. *)

val tag : t -> char -> unit
(** One raw byte: a variant tag or a format marker. *)

val int : t -> int -> unit
val float : t -> float -> unit
val string : t -> string -> unit
val list : t -> (t -> 'a -> unit) -> 'a list -> unit
val ints : t -> int list -> unit
