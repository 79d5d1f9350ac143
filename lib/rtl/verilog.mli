(** Verilog emission of a synthesized design.

    Emits one self-contained behavioral-RTL module that mirrors the RTL
    simulator's semantics exactly: a state register driven by the STG, the
    design's registers, and per-state execution of the scheduled firings
    (chained values as blocking temporaries, register writes nonblocking).
    The functional-unit binding appears as temporaries named after the
    units, so the sharing structure is visible in the text.

    Interface protocol: inputs are sampled and the FSM leaves [IDLE] when
    [start] is high; [done] is asserted for one cycle when the exit state
    is reached, with the outputs valid. *)

val emit :
  Impact_cdfg.Graph.program ->
  Impact_sched.Stg.t ->
  Binding.t ->
  string

val module_name : Impact_cdfg.Graph.program -> string
(** The sanitized Verilog identifier used for the module. *)

val emit_testbench :
  Impact_cdfg.Graph.program ->
  vectors:((string * int) list * (string * int) list) list ->
  string
(** A self-checking testbench: for each (inputs, expected outputs) vector it
    pulses [start], waits for [done], compares every output and keeps an
    error count; finishes with PASS/FAIL on stdout.  Expected values
    normally come from the reference interpreter. *)
