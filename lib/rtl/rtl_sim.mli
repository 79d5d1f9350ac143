(** Cycle-accurate simulation of the bound, scheduled design.

    Walks the STG like the synthesized controller would: in each state it
    executes the state's firings in chained order against the register file
    (guarded firings are skipped when their condition bits do not match),
    commits register writes, evaluates the outgoing transition guards, and
    moves on.  Exactly one transition guard must hold — anything else is a
    controller bug and raises.

    This simulator plays the role of the paper's layout-level IRSIM-CAP
    measurement run: the detailed power model observes it through the
    [observer] callbacks, and its outputs are cross-checked against the
    behavioral interpreter in the test suite (schedule + binding
    correctness end-to-end). *)

module Bitvec := Impact_util.Bitvec

type observer = {
  on_cycle : pass:int -> state:int -> unit;
  on_firing :
    pass:int ->
    state:int ->
    firing:Impact_sched.Stg.firing ->
    inputs:int array ->
    output:int ->
    unit;
}
(** Values are raw bits; their widths are the graph's (the firing node's
    [n_width], and its input edges' [e_width]s).  [inputs] is the
    simulator's own buffer for the node, valid only during the call. *)

val null_observer : observer

type result = {
  pass_outputs : (string * Bitvec.t) list array;
  pass_cycles : int array;
  total_cycles : int;
  mean_cycles : float;  (** the design's measured ENC *)
}

exception Deadlock of string
(** No (or multiple) matching transition, or a pass exceeded the cycle
    budget.  [Impact_core.Request.failure] turns it into the front ends'
    diagnostic (rule [rtl/deadlock]). *)

val simulate :
  ?observer:observer ->
  ?max_cycles_per_pass:int ->
  Impact_cdfg.Graph.program ->
  Impact_sched.Stg.t ->
  Binding.t ->
  workload:(string * int) list list ->
  result
