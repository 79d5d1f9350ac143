(** Execution guards: conjunctions of condition-edge valuations.

    A guard records under which condition outcomes a node executes (or an
    STG transition fires).  Atoms are keyed by the condition {e edge} whose
    value is tested; [value] is the required value.  The empty guard is
    always true. *)

type atom = { cond_edge : Ir.edge_id; value : bool }

type t = atom list
(** Normalized: sorted by edge id, no duplicate edges. *)

val always : t

val atom : Ir.edge_id -> bool -> t

val of_control : Ir.control -> atom

val conj : t -> t -> t
(** Conjunction.  @raise Invalid_argument if the two guards require opposite
    values of the same edge (use {!conflicts} to test first). *)

val conflicts : t -> t -> bool
(** True when the conjunction is unsatisfiable. *)

val implies : t -> t -> bool
(** [implies g h]: every valuation satisfying [g] satisfies [h]. *)

val equal : t -> t -> bool
val compare : t -> t -> int

val value_of : Ir.edge_id -> t -> bool option

val remove_edge : Ir.edge_id -> t -> t

val atoms : t -> atom list

val pp : Format.formatter -> t -> unit
val to_string : t -> string
