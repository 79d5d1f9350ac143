(** Static verification of a binding against its program and schedule.

    Rules are prefixed ["binding/"]:
    - [binding/unbound-op]: a computational node has no functional unit;
    - [binding/fu-class]: a unit's module cannot serve the class of an
      operation bound to it;
    - [binding/fu-width]: a unit is narrower than an operation bound to it;
    - [binding/fu-state-conflict]: two operations bound to one unit fire in
      the same STG state with compatible guards (the unit would be asked to
      compute two things in one cycle);
    - [binding/reg-width]: a register is narrower than a value or primary
      input resident in it;
    - [binding/reg-lifetime]: two values (or a value and a primary input)
      with overlapping lifetimes share a register. *)

val check :
  Impact_cdfg.Graph.program ->
  Impact_sched.Stg.t ->
  Binding.t ->
  Impact_util.Diagnostic.t list
