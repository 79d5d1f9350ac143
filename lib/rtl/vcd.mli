(** VCD (value change dump) capture of an RTL simulation.

    Records the controller state, every register and the per-firing node
    outputs cycle by cycle and renders the standard VCD format (viewable in
    GTKWave and friends).  One timescale unit is one clock cycle. *)

type t

val capture :
  Impact_cdfg.Graph.program ->
  Impact_sched.Stg.t ->
  Binding.t ->
  workload:(string * int) list list ->
  t * Rtl_sim.result
(** Runs the RTL simulation with a recording observer. *)

val render : t -> string
val change_count : t -> int
(** Total number of recorded value changes (diagnostics). *)
