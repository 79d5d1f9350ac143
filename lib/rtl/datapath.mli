(** The structural datapath implied by a binding: functional units,
    registers, and the multiplexer networks that connect them.

    Interconnect model:
    - every shared functional-unit input port gets an n-to-1 network whose
      leaves are the distinct operand values arriving at that port;
    - every register gets a write network whose leaves are the distinct
      values written into it (loop merges contribute their init and back
      values; Sel muxes contribute their own output wire);
    - Sel nodes are 2-to-1 muxes in their own right (nested conditionals
      yield chains of them).

    The network shapes (initially balanced) are the degree of freedom used
    by the multiplexer restructuring move; the derived delay model feeds
    operand path delays back into the scheduler, so restructuring can
    lengthen or shorten state critical paths exactly as in the paper. *)

module Ir := Impact_cdfg.Ir

type key =
  | K_node of Ir.node_id  (** the wire carrying that node's value *)
  | K_const of Impact_util.Bitvec.t
  | K_input of string

val key_equal : key -> key -> bool

type port = P_fu_input of int * int  (** unit, port *) | P_reg_write of int

type network = {
  net_port : port;
  net_keys : key array;  (** leaf index → signal *)
  net_width : int;
  net : Muxnet.t;
}

type t

val build : Binding.t -> t
(** Networks start with balanced shapes. *)

val binding : t -> Binding.t
val networks : t -> network array
val network : t -> int -> network
val network_count : t -> int

val fu_input_network : t -> fu:int -> port:int -> int option
(** [None] when the port has a single source (no mux). *)

val reg_write_network : t -> reg:int -> int option

val leaf_of_key : network -> key -> int option

val restructurable : t -> int list
(** Indices of networks with at least three leaves (restructuring a 2-leaf
    network is a no-op). *)

val delay_model : t -> Impact_sched.Models.delay_model
val resource_model : t -> Impact_sched.Models.resource_model

val mux_area : t -> float
val total_area : t -> stg_states:int -> stg_transitions:int -> float
(** Functional units + registers + muxes + controller estimate. *)

val copy : t -> t
(** Deep copy (networks included) for tentative moves. *)

val write_keys : Binding.t -> Ir.node_id -> key list
(** The signals a node's firing can steer into its register (two for loop
    merges, one otherwise). *)

val operand_key : Binding.t -> Ir.node_id -> port:int -> key

val to_dot : t -> string
(** Graphviz rendering of the structural datapath: functional units,
    registers, steering networks and the wires between them. *)
