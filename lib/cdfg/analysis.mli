(** Structural analyses over a CDFG: use maps, effective guards, mutual
    exclusion.

    An analysis context caches per-node results; build it once per graph
    (the graph must not grow afterwards). *)

type t

val create : Graph.t -> t

val graph : t -> Graph.t

val uses : t -> Ir.edge_id -> (Ir.node_id * int) list
(** Data consumers of an edge as (node, input port) pairs, in node order. *)

val ctrl_uses : t -> Ir.edge_id -> Ir.node_id list

val effective_guard : t -> Ir.node_id -> Guard.t
(** The full conjunction of condition valuations required for the node to
    execute: its own control port plus, transitively, the guards of the
    nodes producing those control values (Section 2.1's control chains). *)

val mutually_exclusive : t -> Ir.node_id -> Ir.node_id -> bool
(** True when the two nodes can never execute under the same condition
    outcomes — the legality test for sharing one functional unit within a
    state and a key lever of CFI synthesis. *)

val condition_edges : t -> Ir.edge_id list
(** Edges read by at least one control port, in id order. *)
