(** Interval / known-bits dataflow analysis over the CDFG.

    A fixpoint abstract interpretation computing, per node output (and
    therefore per edge), a reduced product of a signed interval and a
    known-bits mask at the value's declared width.  The interpreter mirrors
    {!Impact_sim.Sim}'s structured execution: both branches of an [R_if]
    are explored under guard-aware refinement (the branch condition is
    flowed into the dominated region, so [x < 10] narrows [x] on the taken
    path and its complement on the other), and loops run an inner fixpoint
    with threshold widening at the merge back-edges for termination.

    Facts are accumulators over {e every} firing of a node, so they are
    sound against the simulator's event log: under [IMPACT_CHECK=1] the
    range oracle ({!Impact_sim.Rangecheck}) asserts that every simulated
    value lies inside its inferred interval.

    Consumers:
    - {!diagnostics} emits the [range/*] lint rules;
    - {!effective_widths} feeds {!Impact_power.Estimate}'s
      effective-width pricing (the number of bits that can actually
      toggle, given the known-bit prefix);
    - {!dump_json} backs [impact_cli analyze --json]. *)

(** A non-empty abstract value at width [f_width]: every concrete value
    [v] (two's-complement signed, as {!Impact_util.Bitvec.to_signed})
    satisfies [f_lo <= v <= f_hi], has a zero bit wherever [f_zeros] is
    set and a one bit wherever [f_ones] is set.  Values are kept in
    canonical (reduced) form: the interval and the masks imply each other
    as far as a common two's-complement prefix goes. *)
type fact = {
  f_width : int;
  f_lo : int;
  f_hi : int;
  f_zeros : int;  (** mask of bits known to be 0 *)
  f_ones : int;  (** mask of bits known to be 1 *)
}

type av = Bot | Fact of fact
(** [Bot] = unreachable / never produced on any feasible execution. *)

(** {2 Domain operations} (exposed for unit tests) *)

val top : int -> av
(** The full signed range at a width. *)

val interval : width:int -> int -> int -> av
(** [interval ~width lo hi], canonicalised; [Bot] when empty. *)

val singleton : width:int -> int -> av

val of_bitvec : Impact_util.Bitvec.t -> av
(** The singleton of a concrete value (signed interpretation). *)

val join : av -> av -> av
val meet : av -> av -> av

val mem : av -> Impact_util.Bitvec.t -> bool
(** Does the abstract value contain this concrete value? *)

val required_bits : fact -> int
(** Minimum two's-complement width representing both interval endpoints
    (at least 1). *)

val active_bits : av -> width:int -> int
(** Number of bits not pinned by the known-bits masks, clamped to
    [1..width] — the effective datapath width for switching purposes
    ([Bot] prices as 1). *)

val transfer : Ir.op_kind -> width:int -> av array -> av
(** The pure per-operator transfer function on input facts ([width] is
    the node's output width; used directly by the engine for every
    data operator, and by the unit tests).  [Op_select] here is the
    unrefined variant (join of both data inputs gated by the condition);
    [Op_loop_merge] joins its two inputs. *)

(** {2 Whole-program analysis} *)

type t

val analyze : Graph.program -> t
(** Run the fixpoint to completion (widening guarantees termination). *)

val node_fact : t -> Ir.node_id -> av
val edge_fact : t -> Ir.edge_id -> av
(** A [Const] edge is its singleton, a [Primary_input] is the top of its
    declared width, a [From_node] edge carries its producer's fact. *)

val effective_widths : t -> int array
(** Per node id: {!active_bits} of its output fact. *)

val diagnostics : t -> Impact_util.Diagnostic.t list
(** The [range/overflow-possible], [range/comparison-constant],
    [range/dead-branch] and [range/width-oversized] rules, all
    warning-severity.  Findings the purely syntactic language lint
    already reports (conditions and comparisons whose operands are all
    literal constants) are suppressed rather than double-reported. *)

val dump_json : t -> string
(** Deterministic per-edge fact dump (ascending edge id) for
    [impact_cli analyze --json]. *)
