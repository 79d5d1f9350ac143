(** Reference interpreter for typed programs.

    Executes the typed AST directly with fixed-width two's-complement
    semantics.  It is deliberately independent of the CDFG pipeline: the
    behavioral simulator ({!Impact_sim}) and the RTL simulator are both
    cross-checked against it in the test suite. *)

exception Nonterminating of string
(** Raised when the step budget is exhausted.  [Impact_core.Request.failure]
    turns it into the front ends' diagnostic (rule [lang/nonterminating]);
    the CLI's [simulate] runs the CDFG simulation first, whose
    [Impact_sim.Sim.Stuck] names the loop. *)

exception Runtime_error of string

type outcome = {
  results : (string * Impact_util.Bitvec.t) list;
  stmt_steps : int;  (** number of statement executions, a cost proxy *)
}

val run :
  ?max_steps:int ->
  Typecheck.tprogram ->
  inputs:(string * int) list ->
  outcome
(** [inputs] maps parameter names to integer values (truncated to the
    parameter width).  Results not assigned by the program keep their
    implicit initial value 0.
    @raise Runtime_error on a missing input. *)
