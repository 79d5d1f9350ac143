(** Behavioral simulation of a CDFG program.

    One simulation of the whole workload produces, per node, the ordered
    sequence of firing events (input and output vectors) — exactly the
    signal traces of Section 2.3.  Every later synthesis step re-merges this
    log instead of re-simulating (trace manipulation); re-simulation is only
    needed if the CDFG itself changed.

    The log is columnar: each firing is a fixed number of plain ints (the
    output's bits, each input's bits, pass, seq and tag), read back through
    the index accessors below.  Widths are static per node and port, so no
    {!Impact_util.Bitvec.t} is kept; {!node_events} materialises records for
    the paths that want them.

    Loop-merge nodes fire once with their init value when the loop is
    entered and once per completed iteration with the loop-back value; both
    firings appear in the event log (they are the write activity of the
    merge's register), each recording both inputs. *)

module Ir := Impact_cdfg.Ir

type firing_tag = Tag_normal | Tag_merge_init | Tag_merge_back

type event = {
  ev_inputs : Impact_util.Bitvec.t array;
  ev_output : Impact_util.Bitvec.t;
  ev_pass : int;  (** workload pass index *)
  ev_seq : int;  (** global firing order within the pass *)
  ev_tag : firing_tag;
}

type log = { stride : int; mutable count : int; mutable chunks : int array array }
(** One node's firing log: [count] firings of [stride] ints (the node's
    port count plus 4), row by row in chunks of [chunk_events] firings;
    only the last chunk is shorter. *)

val chunk_events : int

type run = private {
  program : Impact_cdfg.Graph.program;
  logs : log array;  (** indexed by node id *)
  widths : int array array;
  tag_counts : int array;
  passes : int;
  profile : Profile.t;
  pass_outputs : (string * Impact_util.Bitvec.t) list array;  (** per pass *)
  firings_total : int;
  edge_consumer : (Ir.node_id * int) option array;
      (** edge id → first (consumer node, input port) in canonical
          node/port order, precomputed so {!edge_values} on a primary input
          is O(events) instead of an O(nodes × ports) graph scan per call *)
}

exception Stuck of string
(** Raised when a loop exceeds the iteration budget; the message names the
    loop and the bound.  [Impact_core.Request.failure] turns it into the
    front ends' diagnostic: a one-line exit 1 from the CLI, a
    [sim/nonterminating] finding from lint and an error reply from serve. *)

val simulate :
  ?max_loop_iters:int ->
  Impact_cdfg.Graph.program ->
  workload:(string * int) list list ->
  run
(** [workload] is one input binding list per pass.
    @raise Stuck when a loop exceeds [max_loop_iters] (default 100_000).
    @raise Invalid_argument when a pass misses an input a firing reads, or,
    before the run, when a node's operands or result would have a width
    other than the graph's. *)

val eval : Ir.op_kind -> width:int -> in_width:int -> int -> int -> int -> int
(** [eval kind ~width ~in_width a b c]: one operation on raw bits, the
    single definition of operation semantics, shared with the RTL simulator.
    [a], [b] and [c] are the operands' bits (0 past the kind's arity),
    [width] the node's output width and [in_width] its first operand's,
    which sets the sign of comparisons, [Op_shr] and [Op_resize].  The
    operands' widths must be those {!result_width} accepts; the result is
    [width] bits.  Shift amounts are unsigned and saturate at 62.
    @raise Invalid_argument on [Op_loop_merge], whose firings carry a
    phase. *)

val result_width : Ir.op_kind -> width:int -> int array -> int
(** The width an operation of a [width]-bit node yields from operands of
    the given widths ([width] itself only matters for [Op_resize]).
    @raise Invalid_argument where the operands' widths must agree and do
    not. *)

(** {2 Index accessors}

    [i] ranges over [0 .. count run nid - 1] in firing order; [output] is
    raw bits.  A scan of a whole log is cheaper over the [chunks] of
    [logs] directly. *)

val count : run -> Ir.node_id -> int
val output : run -> Ir.node_id -> int -> int
val pass : run -> Ir.node_id -> int -> int
val seq : run -> Ir.node_id -> int -> int

val tag_count : run -> Ir.node_id -> firing_tag -> int
(** Firings of the node with the tag, counted once per run. *)

val output_width : run -> Ir.node_id -> int
val input_width : run -> Ir.node_id -> int -> int

val event : run -> Ir.node_id -> int -> event
(** The [i]th firing as a record. *)

val node_events : run -> Ir.node_id -> event array
(** Every firing of the node as records: a materialised view for tests. *)

val edge_values : run -> Ir.edge_id -> Impact_util.Bitvec.t array
(** The chronological trace of values carried by an edge across all passes
    (constants yield one value per pass; primary inputs their per-pass
    value; node outputs their firing outputs). *)
