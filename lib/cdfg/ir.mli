(** Core types of the control-data flow graph (CDFG) model of Section 2.1.

    Nodes carry operations; edges carry data values only.  Control
    dependencies are expressed through a per-node {e control port}: an
    optional (edge, polarity) pair.  A node executes when its data inputs are
    available and the value on its control edge matches the polarity
    ([Active_high] fires on true, [Active_low] on false); a node without a
    control port is control-independent within its enclosing region.

    Two structural node kinds come from the paper: [Op_select] (the Sel node
    merging the two branches of a conditional fork) and [Op_end_loop] (the
    Elp node terminating a loop and exporting its live-out values).  We add
    [Op_loop_merge], a loop-entry merge (phi): the paper's "initial value on
    an edge" notation is its constant special case, and the general form also
    covers loop-carried variables whose entry value is computed.  [Op_copy]
    is an explicit register transfer used when lowering merges and exports.

    A {!region} is the structured view of the same graph (derived during
    elaboration, consumed by the scheduler); leaves reference graph nodes. *)

type node_id = int
type edge_id = int
type loop_id = int

type polarity = Active_high | Active_low

type control = { ctrl_edge : edge_id; polarity : polarity }

type op_kind =
  | Op_add
  | Op_sub
  | Op_mul
  | Op_lt
  | Op_le
  | Op_gt
  | Op_ge
  | Op_eq
  | Op_ne
  | Op_and
  | Op_or
  | Op_xor
  | Op_not
  | Op_shl
  | Op_shr
  | Op_copy
  | Op_resize  (** sign-extend or truncate to the node's output width *)
  | Op_select  (** inputs: [cond; value-if-true; value-if-false] *)
  | Op_loop_merge  (** inputs: [initial value; loop-back value] *)
  | Op_end_loop  (** inputs: [loop-carried value]; exports it past the loop *)
  | Op_output of string  (** primary-output sink *)

type source =
  | From_node of node_id
  | Const of Impact_util.Bitvec.t
  | Primary_input of string

type edge = {
  e_id : edge_id;
  source : source;
  e_width : int;
  label : string option;  (** variable name carried, for diagnostics *)
}

type node = {
  n_id : node_id;
  kind : op_kind;
  inputs : edge_id array;  (** ordered data input ports *)
  ctrl : control option;
  n_width : int;  (** output width in bits *)
  loops : loop_id list;  (** enclosing loops, innermost first *)
  n_name : string;  (** display name, e.g. "+1" *)
}

type region =
  | R_ops of node_id list
      (** a dataflow leaf: operations ordered only by their data edges *)
  | R_seq of region list
  | R_if of {
      cond_edge : edge_id;
      then_r : region;
      else_r : region;
      sels : node_id list;  (** the Sel nodes merging the two branches *)
    }
  | R_loop of {
      loop : loop_id;
      merges : node_id list;  (** loop-entry merge nodes *)
      cond_r : region;  (** per-iteration condition computation *)
      cond_edge : edge_id;
      body : region;
      elps : node_id list;  (** End-loop export nodes *)
    }

val op_arity : op_kind -> int
(** Expected number of data inputs; [Op_output] takes 1. *)

val op_name : op_kind -> string

val is_condition_producer : op_kind -> bool
(** True for comparison and boolean kinds, whose 1-bit results steer control
    ports and transitions. *)

val region_nodes : region -> node_id list
(** All node ids mentioned in the region tree, in pre-order. *)

val pp_polarity : Format.formatter -> polarity -> unit
