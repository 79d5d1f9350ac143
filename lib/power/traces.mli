(** Trace manipulation (Section 2.3).

    One behavioral simulation records per-operation traces.  The trace of a
    shared RT-level unit is the merge of the traces of the operations mapped
    to it, in execution order — computed here by merging the simulator's
    columnar firing logs by (node, index), never by re-simulating.  The
    test suite and the [trace-manip] bench verify that the merged trace
    equals the one a fresh simulation would produce, and time both paths. *)

module Ir := Impact_cdfg.Ir
module Bitvec := Impact_util.Bitvec

type entry = {
  tr_node : Ir.node_id;  (** which operation produced this row *)
  tr_inputs : Bitvec.t array;
  tr_output : Bitvec.t;
  tr_pass : int;
  tr_seq : int;
}

val unit_trace : Impact_sim.Sim.run -> Ir.node_id list -> entry array
(** Merge the traces of the given operations in (pass, seq) execution
    order — the paper's merge of [TR(op_i)] matrices along the STG path.
    {!unit_switching_stats} streams the same merge over raw ints without
    materialising it; this form is the reference the tests and the bench
    compare. *)

val switching_per_access : width:int -> Bitvec.t array -> float
(** Mean per-bit Hamming distance between consecutive vectors of a signal
    trace (0 for traces shorter than 2). *)

type unit_stats = { us_input_sw : float; us_output_sw : float }

val unit_switching_stats : Impact_sim.Sim.run -> Ir.node_id list -> unit_stats
(** Input and output per-access, per-bit switching of a shared unit from a
    single streamed merge of its operations' traces — one k-way merge
    instead of two, with float operation order identical to the separate
    computations. *)

val value_switching : Impact_sim.Sim.run -> key:Impact_rtl.Datapath.key -> float
(** The [a_i] of a network leaf: switching of the signal identified by the
    key (node wire, constant = 0, or primary input). *)
