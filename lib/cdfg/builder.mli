(** Convenience layer for constructing CDFGs.

    A {e value} is simply the edge that carries it.  The builder keeps a
    current control context (the control port assigned to emitted nodes) and
    a current loop context, so callers describe the graph in program order
    and the structural bookkeeping is applied automatically. *)

type t

type value = Ir.edge_id

val create : ?name:string -> unit -> t

val graph : t -> Graph.t

val const : t -> ?width:int -> int -> value
(** Default width 16. *)

val const_bool : t -> bool -> value

val input : t -> string -> width:int -> value
(** Declares a primary input (once per name) and returns its edge. *)

val with_ctrl : t -> Ir.control option -> (unit -> 'a) -> 'a
(** Runs the thunk with the given control context (nodes emitted inside get
    that control port). *)

val with_loop : t -> Ir.loop_id -> (unit -> 'a) -> 'a
(** Runs the thunk inside the loop (emitted nodes get tagged). *)

val fresh_loop : t -> Ir.loop_id

val emit : t -> Ir.op_kind -> ?name:string -> ?width:int -> value list -> Ir.node_id * value
(** Adds a node under the current contexts; the result value has the node's
    output width (defaults: 1 for condition producers, else the width of the
    first input). *)

val emit_output : t -> string -> value -> Ir.node_id
(** Adds an [Op_output] sink and records it. *)

val binop : t -> Ir.op_kind -> value -> value -> value
val select : t -> cond:value -> if_true:value -> if_false:value -> Ir.node_id * value

val loop_merge : t -> init:value -> width:int -> ?name:string -> unit -> Ir.node_id * value
(** Creates a merge whose back input is patched later with
    {!set_merge_back}. *)

val set_merge_back : t -> Ir.node_id -> value -> unit
(** @raise Invalid_argument if the node is not a pending loop merge. *)

val end_loop : t -> value -> ?name:string -> unit -> Ir.node_id * value

val finish : t -> top:Ir.region -> Graph.program
(** Seals the program.  @raise Invalid_argument if some loop merge was never
    given its back value. *)

val inputs : t -> (string * int) list
val outputs : t -> (string * Ir.node_id) list
