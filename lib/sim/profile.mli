(** Branch and loop statistics gathered during behavioral simulation.

    These statistics feed two consumers: transition probabilities of the
    STG Markov chain (ENC computation) and the propagation probabilities
    [p_i] of the multiplexer-tree activity model. *)

type t

val create : unit -> t

val record_conds : t -> Impact_cdfg.Ir.edge_id -> trues:int -> falses:int -> unit
(** Adds [trues] true and [falses] false outcomes of the condition edge.
    The table's layout depends only on the order in which edges are first
    recorded. *)

val record_loop_exit : t -> Impact_cdfg.Ir.loop_id -> iterations:int -> unit

val cond_evaluations : t -> Impact_cdfg.Ir.edge_id -> int
(** Total number of recorded outcomes (0 when never evaluated). *)

val prob_true : t -> Impact_cdfg.Ir.edge_id -> float
(** Probability that the condition edge evaluates true; 0.5 when the edge
    was never exercised (uninformative prior). *)

val mean_iterations : t -> Impact_cdfg.Ir.loop_id -> float
(** Average number of body executions per loop entry; 0 when the loop never
    ran. *)

val loop_exits : t -> Impact_cdfg.Ir.loop_id -> int
(** Number of recorded loop exits (0 when the loop never ran). *)
