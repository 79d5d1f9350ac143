(** The module library: VLSI implementations available to module selection.

    Each specification is characterised at the nominal 5 V supply for a
    16-bit datapath; delay is flat in width while area and switched
    capacitance scale linearly with width (a standard first-order model).
    The constants the paper states are honoured exactly: an adder takes
    10 ns, a 2-to-1 multiplexer 3 ns, and chaining adds a 10% delay
    overhead (Section 3.2.1's worked example).

    Module substitution (Section 3.2.2) swaps a functional unit's [spec] for
    another spec of the same class — e.g. replacing an array multiplier with
    a larger, faster Wallace-tree multiplier. *)

type fu_class =
  | Class_add_sub  (** adders/subtracters *)
  | Class_mul
  | Class_cmp  (** comparators *)
  | Class_logic  (** 1-bit boolean gates *)
  | Class_shift  (** barrel shifters *)
  | Class_alu  (** multi-function: covers add/sub, compare and logic ops *)

type spec = {
  spec_name : string;
  fu_class : fu_class;
  delay_ns : float;  (** propagation delay at 5 V, width 16 *)
  area : float;  (** layout area units at width 16 *)
  cap_per_op : float;  (** switched capacitance coefficient per activation *)
  pipelined : bool;
      (** a pipelined unit accepts a new operation every cycle even when its
          latency spans several (initiation interval 1) *)
}

type t

val default : t
(** The library used throughout the reproduction. *)

val all_specs : t -> spec list

val specs_of_class : t -> fu_class -> spec list
(** Every spec that can serve the class, sorted by increasing delay. *)

val fastest : t -> fu_class -> spec
val smallest : t -> fu_class -> spec
val find : t -> string -> spec
(** @raise Not_found for unknown names. *)

val class_of_op : Impact_cdfg.Ir.op_kind -> fu_class option
(** [None] for structural kinds (Sel, merges, copies, outputs). *)

val spec_serves : spec -> fu_class -> bool
(** Whether the spec can implement operations of the class ([Class_alu]
    serves add/sub, compare and logic). *)

val scaled_area : spec -> width:int -> float
val scaled_cap : spec -> width:int -> float

val mux2_delay_ns : float
(** 3 ns, as in the paper's example. *)

val mux2_area : width:int -> float
val mux2_cap : width:int -> float

val register_area : width:int -> float
val register_write_cap : width:int -> float
val register_clock_cap : width:int -> float
(** Clock loading charged every cycle, written or not. *)

val chain_overhead : float
(** Multiplicative delay overhead for each chained stage after the first
    (0.10 per the paper). *)

val controller_state_cap : float
val controller_transition_cap : float

val wire_cap_per_fanout : float
(** First-order interconnect loading per sink. *)

val glitch_factor : int -> float
(** Spurious-transition multiplier of a unit firing at the given chaining
    depth (0 = operands read from registers): [1 + 0.15 * depth]. *)

val controller_ff_cap : float
(** Switched capacitance per state-register bit toggle. *)
