(** Multiplexer networks: n-to-1 trees of 2-to-1 muxes (Section 3.2.1).

    Three kinds of network arise in a datapath: the input multiplexer of a
    shared functional-unit port, the write multiplexer of a shared register,
    and the Sel cascades produced by nested conditionals.  All are
    represented uniformly as a set of leaf signals with a binary tree shape
    over them; the shape is the degree of freedom that the restructuring
    move optimises.

    Each leaf [i] carries a transition activity [a_i] and a propagation
    probability [p_i] (the probability that the leaf's signal appears at
    the tree output); [tree_activity] evaluates Equation (7) exactly and
    [restructure] runs the Huffman construction of Figure 12. *)

type shape = L of int | N of shape * shape

type t

val create : n_leaves:int -> t
(** Starts with a balanced tree ([n_leaves] ≥ 1; a single leaf has no mux). *)

val n_leaves : t -> int
val shape : t -> shape
val set_shape : t -> shape -> unit
(** @raise Invalid_argument unless the shape is a permutation tree over
    exactly the same leaves. *)

val balanced_shape : int -> shape

val depth_of_leaf : t -> int -> int
(** Number of muxes the leaf traverses to the output (0 for a 1-leaf net). *)

val max_depth : t -> int
val mux_count : t -> int
(** [n - 1]. *)

val tree_activity : t -> a:(int -> float) -> p:(int -> float) -> float
(** Equation (7): the summed switching activity of all 2-to-1 muxes in the
    tree, given per-leaf activity and propagation probability. *)

val restructure : t -> ap:(int -> float * float) -> unit
(** Figure 12: orders signals by increasing activity-probability product and
    combines greedily, Huffman style, so high-[ap] signals end near the
    output.  [ap i] returns [(a_i, p_i)]. *)

val copy : t -> t
val equal_shape : shape -> shape -> bool
