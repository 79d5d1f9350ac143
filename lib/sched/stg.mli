(** State transition graphs (STGs) and schedule fragments.

    An STG state holds the operations that execute while the controller is
    in that state, in chained dependence order with their start/finish times
    inside the clock period.  Transitions carry guards over condition-edge
    values; the guards of a state's outgoing transitions are exhaustive and
    mutually exclusive with respect to the condition bits that are defined
    when the state is left.

    Firings are unguarded: a conditional's branches live in distinct states
    reached by guarded transitions, and loop-free branches that the
    scheduler flattens execute {e speculatively} (the hardware computes both
    sides combinationally and a Sel mux picks — Figures 9/10 of the paper).

    A {!frag} is an STG under construction with an entry and a set of
    guarded exit points; the scheduler composes fragments sequentially, as
    conditional forks, as loops, and as parallel products. *)

module Ir := Impact_cdfg.Ir
module Guard := Impact_cdfg.Guard

type phase = Normal | Merge_init | Merge_back

type firing = {
  f_node : Ir.node_id;
  f_phase : phase;
  f_guard : Guard.t;
      (** almost always [Guard.always] (speculative execution); set to the
          operation's effective guard when two mutually exclusive operations
          share one functional unit within a state, in which case the mux
          steering makes only the guarded one execute *)
  f_start_ns : float;  (** data arrival inside the state's clock period *)
  f_finish_ns : float;
  f_chain_pos : int;  (** 0 = operands read from registers *)
}

type state = { firings : firing list }

type transition = { t_guard : Guard.t; t_dst : int }

type t = {
  states : state array;
  succs : transition list array;
  entry : int;
  exit_id : int;  (** absorbing exit; no firings, no successors *)
  clock_ns : float;
}

val state_count : t -> int
(** Number of states excluding the absorbing exit. *)

val firings_of : t -> int -> firing list
val iter_firings : t -> f:(int -> firing -> unit) -> unit

val critical_path_ns : t -> float
(** Largest firing finish time over all states (the combinational critical
    path that the clock period must cover). *)

val state_critical_path_ns : t -> int -> float

val signature : t -> string
(** A canonical rendering of the complete STG structure (states, firings
    with guards/phases/times, transitions, clock, entry/exit).  Two STGs
    with equal signatures are interchangeable for scheduling-derived
    analyses (ENC, activations, controller statistics, lifetimes).  Golden
    tests and the scheduler's cold-reschedule cross-check compare it. *)

val key : t -> string
(** The schedule's {e shape} as compact binary bytes ({!Impact_util.Keybuf}):
    the clock, entry and exit, every state's firings in order (node, phase,
    guard, chain position) and every transition (destination, guard).  It
    covers every field of {!signature} except the firings' [f_start_ns] and
    [f_finish_ns], so two STGs have equal keys iff their signatures are
    equal once those times are erased.  It keys the power estimator's
    per-schedule memo tables, whose contents (ENC, activations, controller
    statistics, lifetimes) do not read the times; the critical path, which
    does, is never taken from them. *)

val pp : Format.formatter -> t -> unit
val to_dot : t -> string

(** {1 Fragments} *)

type frag

val frag_create : unit -> frag
val frag_add_state : frag -> state -> int
val frag_add_transition : frag -> src:int -> Guard.t -> dst:int -> unit
val frag_set_entry : frag -> int -> unit
val frag_add_exit : frag -> src:int -> Guard.t -> unit
val frag_entry : frag -> int
val frag_exits : frag -> (int * Guard.t) list
val frag_set_exits : frag -> (int * Guard.t) list -> unit
val frag_state : frag -> int -> state
val frag_state_count : frag -> int
val frag_succs : frag -> int -> transition list

val frag_of_chain : state list -> frag
(** A straight-line fragment: states in order, unconditional transitions,
    single always-exit from the last state.  The list must be non-empty. *)

val frag_empty : unit -> frag
(** One empty state (a fragment must have an entry to compose). *)

val graft : frag -> frag -> int
(** Copies the second fragment's states and transitions into the first and
    returns the id offset; entries/exits are left for the caller to wire
    (used for loop construction). *)

val seq : frag -> frag -> frag
(** Connects every exit of the first fragment to the entry of the second. *)

val fork :
  frag -> cond_edge:Ir.edge_id -> then_f:frag -> else_f:frag -> frag
(** Conditional composition: from each exit [(s, g)] of the prefix fragment
    add transitions [g ∧ cond] to the then-fragment and [g ∧ ¬cond] to the
    else-fragment; the exits of both branches become the exits of the
    result. *)

val back_edges :
  frag -> cond_edge:Ir.edge_id -> target:int -> frag
(** For every exit [(s, g)]: transition [g ∧ cond] back to [target] and
    turn [g ∧ ¬cond] into an exit (loop construction). *)

exception Product_too_large

val par : ?max_states:int -> frag -> frag -> frag
(** Synchronous product: both fragments advance each cycle; a side that has
    exited idles until the other exits.  Firings are unions.  Guards of
    simultaneous transitions are conjoined; incompatible pairs are dropped.
    @raise Product_too_large when the product exceeds [max_states]
    (default 20000). *)

val instantiate : frag -> clock_ns:float -> t
(** Closes the fragment into an STG: adds the absorbing exit state and
    connects every fragment exit to it.  Unreachable states are removed. *)

(** {1 Portable fragments}

    Fragments are mutable: the composition operators splice states into
    their left argument in place, so a memoised fragment must be frozen on
    the way into a cache and materialised as a fresh copy on the way out. *)

type portable_frag = {
  pf_states : state array;
  pf_succs : transition list array;  (** parallel to [pf_states] *)
  pf_entry : int;
  pf_exits : (int * Guard.t) list;
}

val frag_to_portable : frag -> portable_frag
(** A frozen deep-enough copy: the arrays are fresh, the states and
    transition lists they hold are immutable and shared. *)

val frag_of_portable : portable_frag -> frag
(** A fresh mutable fragment; the snapshot is never aliased, so the result
    can be composed (and thereby mutated) freely. *)

val portable_frag_wf : portable_frag -> bool
(** Bounds-validation for snapshots of untrusted provenance (the on-disk
    fragment tier): entry, every transition destination and every exit
    source must name a state of the snapshot itself. *)
