(** The CDFG container: nodes, edges and the structured program view.

    Construction is append-only (ids are dense, starting at 0), which keeps
    every derived analysis array-indexed.  Use {!Builder} for a friendlier
    construction API. *)

type t

type program = {
  graph : t;
  top : Ir.region;
  prog_inputs : (string * int) list;  (** primary input names and widths *)
  prog_outputs : (string * Ir.node_id) list;  (** output name, sink node *)
  prog_name : string;
}

val create : unit -> t

val add_edge :
  t -> source:Ir.source -> width:int -> ?label:string -> unit -> Ir.edge_id

val add_node :
  t ->
  kind:Ir.op_kind ->
  inputs:Ir.edge_id list ->
  ?ctrl:Ir.control ->
  width:int ->
  ?loops:Ir.loop_id list ->
  ?name:string ->
  unit ->
  Ir.node_id
(** @raise Invalid_argument if the input count differs from the kind's arity
    or an edge id is unknown. *)

val set_node_input : t -> Ir.node_id -> int -> Ir.edge_id -> unit
(** Re-points one data input port; used to patch loop-back edges. *)

val node : t -> Ir.node_id -> Ir.node
val edge : t -> Ir.edge_id -> Ir.edge
val node_count : t -> int
val edge_count : t -> int
val nodes : t -> Ir.node list
(** In id order. *)

val edges : t -> Ir.edge list

val consumers : t -> Ir.edge_id -> Ir.node_id list
(** Nodes that read the edge through a data input port. *)

val data_fanout : t -> int array
(** Per node, the number of data input ports that read its value. *)

val fold_nodes : t -> init:'a -> f:('a -> Ir.node -> 'a) -> 'a
val iter_nodes : t -> f:(Ir.node -> unit) -> unit
val iter_edges : t -> f:(Ir.edge -> unit) -> unit

val fresh_loop_id : t -> Ir.loop_id
