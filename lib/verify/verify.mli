(** The cross-layer static verification framework.

    One orchestrator over one analyzer per pipeline layer, all speaking
    {!Impact_util.Diagnostic.t}:

    - {b lang} — AST lint ({!Impact_lang.Lint});
    - {b cdfg} — program well-formedness ({!Impact_cdfg.Validate});
    - {b stg} — schedule invariants ({!Impact_sched.Check});
    - {b binding} — unit/register assignment legality
      ({!Impact_rtl.Binding_check});
    - {b rtl} — interconnect and controller structure
      ({!Impact_rtl.Rtl_check});
    - {b power} — energy-ledger and trace/profile sanity
      ({!Impact_power.Power_check}).

    An {!input} bundles whatever pipeline artifacts exist for a design;
    each pass runs when its inputs are present and is silent otherwise, so
    the same [run_all] serves a bare source file (lang only), an elaborated
    program (lang + cdfg), and a fully synthesized solution (everything).
    Diagnostics come back with paths of the form
    ["<design>/<layer>/<location>"], e.g. ["cordic/stg/state 7"]. *)

module Diagnostic = Impact_util.Diagnostic

type input = {
  in_name : string;  (** design name; prefixed onto every path *)
  in_source : Impact_lang.Ast.program option;
  in_program : Impact_cdfg.Graph.program option;
  in_stg : Impact_sched.Stg.t option;
  in_binding : Impact_rtl.Binding.t option;
  in_dp : Impact_rtl.Datapath.t option;
  in_run : Impact_sim.Sim.run option;
  in_ledger : Impact_power.Estimate.ledger option;
}

val input :
  name:string ->
  ?source:Impact_lang.Ast.program ->
  ?program:Impact_cdfg.Graph.program ->
  ?stg:Impact_sched.Stg.t ->
  ?binding:Impact_rtl.Binding.t ->
  ?dp:Impact_rtl.Datapath.t ->
  ?run:Impact_sim.Sim.run ->
  ?ledger:Impact_power.Estimate.ledger ->
  unit ->
  input
(** A datapath implies its binding; a run implies its program; either
    implication is filled in automatically. *)

type pass = {
  pass_name : string;  (** the layer, e.g. ["stg"]; used as path prefix *)
  pass_doc : string;
  pass_run : input -> Diagnostic.t list;
      (** layer-relative paths; [[]] when the pass's inputs are absent *)
}

val all_passes : pass list
(** In pipeline order: lang, cdfg, stg, binding, rtl, power. *)

val run_pass : pass -> input -> Diagnostic.t list
(** Runs one pass and prefixes ["<design>/<layer>/"] onto each path. *)

val run_all : input -> Diagnostic.t list
(** Every pass of {!all_passes}, concatenated in pipeline order. *)
