(** Trace manipulation (Section 2.3).

    One behavioral simulation records per-operation traces.  The trace of a
    shared RT-level unit is the merge of the traces of the operations mapped
    to it, in execution order — computed here from the simulator's columnar
    firing logs ({!Impact_sim.Sim.run}'s [logs]), never by re-simulating.
    The kernels read the logs' chunk arrays directly: a one-node unit or a
    single signal is one scan of its node's rows, and a multi-node unit is
    a k-way merge that compares pass, then seq, straight from the chunks.
    The test suite checks the merge against the sorted union of the nodes'
    {!Impact_sim.Sim.node_events} and against a fresh simulation, and the
    [trace-manip] bench times it beside re-simulation. *)

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
    {!unit_switching_stats} folds the same merge routine over raw ints
    without materialising it; this form is what the tests and the bench
    compare. *)

val switching_per_access : width:int -> Bitvec.t array -> float
(** Mean per-bit Hamming distance between consecutive vectors of a signal
    trace (0 for traces shorter than 2). *)

type unit_stats = { us_input_sw : float; us_output_sw : float }

val unit_switching_stats : Impact_sim.Sim.run -> Ir.node_id list -> unit_stats
(** Input and output per-access, per-bit switching of a shared unit,
    folded over its merged trace in one pass (a one-node unit scans its
    rows with no merge), with float operation order identical to folding
    {!unit_trace}'s rows.  Per consecutive pair of firings, input switching
    counts the ports both have whose widths agree, and output switching the
    pairs whose output widths agree. *)

val value_switching : Impact_sim.Sim.run -> key:Impact_rtl.Datapath.key -> float
(** The [a_i] of a network leaf: switching of the signal identified by the
    key (node wire, constant = 0, or primary input), one scan of one
    column of a log; equal, bit for bit, to {!switching_per_access} over
    the key's {!Impact_sim.Sim.edge_values}. *)
