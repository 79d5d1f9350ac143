(** Value lifetimes over a schedule, for register-sharing legality.

    A value is live in a state when some path from that state reads it from
    its register before it is redefined.  Computed by a backward fixpoint
    over the (cyclic) STG; reads satisfied by same-state chaining still
    count as register reads (conservative).  Primary inputs are modelled as
    values defined at pass entry; primary outputs stay live through the
    exit state (they are read externally).

    The result keeps only the interference relation, one bit per unordered
    pair of values, so a schedule's analysis is cheap to memoise.  Ids
    outside the analysed program are compatible with everything. *)

module Ir := Impact_cdfg.Ir

type t

val analyse : Impact_cdfg.Graph.program -> Impact_sched.Stg.t -> t

val values_can_share : t -> Ir.node_id -> Ir.node_id -> bool
(** True when the two node outputs never interfere (their registers may be
    merged). *)

val input_can_share : t -> string -> Ir.node_id -> bool
(** Whether a primary-input register may also hold the given value. *)

val regs_can_share : t -> Binding.t -> int -> int -> bool
(** Lifts the pairwise tests to whole registers under a binding: every
    value/input of one register must be compatible with every value/input
    of the other. *)
