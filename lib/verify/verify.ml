module Diagnostic = Impact_util.Diagnostic

type input = {
  in_name : string;
  in_source : Impact_lang.Ast.program option;
  in_program : Impact_cdfg.Graph.program option;
  in_stg : Impact_sched.Stg.t option;
  in_binding : Impact_rtl.Binding.t option;
  in_dp : Impact_rtl.Datapath.t option;
  in_run : Impact_sim.Sim.run option;
  in_ledger : Impact_power.Estimate.ledger option;
}

let input ~name ?source ?program ?stg ?binding ?dp ?run ?ledger () =
  let binding =
    match (binding, dp) with
    | Some b, _ -> Some b
    | None, Some dp -> Some (Impact_rtl.Datapath.binding dp)
    | None, None -> None
  in
  let program =
    match (program, run) with
    | Some p, _ -> Some p
    | None, Some r -> Some r.Impact_sim.Sim.program
    | None, None -> None
  in
  {
    in_name = name;
    in_source = source;
    in_program = program;
    in_stg = stg;
    in_binding = binding;
    in_dp = dp;
    in_run = run;
    in_ledger = ledger;
  }

type pass = {
  pass_name : string;
  pass_doc : string;
  pass_run : input -> Diagnostic.t list;
}

let lang_pass =
  {
    pass_name = "lang";
    pass_doc = "AST lint: definite assignment, reachability, loop sanity";
    pass_run =
      (fun i ->
        match i.in_source with
        | Some ast -> Impact_lang.Lint.check ast
        | None -> []);
  }

let cdfg_pass =
  {
    pass_name = "cdfg";
    pass_doc = "CDFG well-formedness: widths, regions, outputs, acyclicity";
    pass_run =
      (fun i ->
        match i.in_program with
        | Some p -> Impact_cdfg.Validate.check p
        | None -> []);
  }

let stg_pass =
  {
    pass_name = "stg";
    pass_doc = "schedule invariants: firing sites, guard determinism/exhaustiveness, timing";
    pass_run =
      (fun i ->
        match (i.in_program, i.in_stg) with
        | Some p, Some stg ->
          let profile =
            Option.map (fun r -> r.Impact_sim.Sim.profile) i.in_run
          in
          Impact_sched.Check.check ?profile p stg
        | _ -> []);
  }

let binding_pass =
  {
    pass_name = "binding";
    pass_doc = "unit classes/widths, per-state unit conflicts, register widths and lifetimes";
    pass_run =
      (fun i ->
        match (i.in_program, i.in_stg, i.in_binding) with
        | Some p, Some stg, Some b -> Impact_rtl.Binding_check.check p stg b
        | _ -> []);
  }

let rtl_pass =
  {
    pass_name = "rtl";
    pass_doc = "mux-tree shapes, fan-in cover, net drivers, controller codes";
    pass_run =
      (fun i ->
        match (i.in_stg, i.in_dp) with
        | Some stg, Some dp -> Impact_rtl.Rtl_check.check stg dp
        | _ -> []);
  }

let range_pass =
  {
    pass_name = "range";
    pass_doc = "interval/known-bits facts: overflow, constant guards, dead branches, oversized widths";
    pass_run =
      (fun i ->
        match i.in_program with
        | Some p -> Impact_cdfg.Ranges.(diagnostics (analyze p))
        | None -> []);
  }

let power_pass =
  {
    pass_name = "power";
    pass_doc = "ledger-term sanity and trace/profile consistency";
    pass_run =
      (fun i ->
        match i.in_run with
        | Some run -> Impact_power.Power_check.check ?ledger:i.in_ledger run
        | None -> (
          match i.in_ledger with
          | Some lg -> Impact_power.Power_check.check_ledger lg
          | None -> []));
  }

let all_passes =
  [ lang_pass; cdfg_pass; range_pass; stg_pass; binding_pass; rtl_pass; power_pass ]

let run_pass pass i =
  pass.pass_run i
  |> Diagnostic.prefix pass.pass_name
  |> Diagnostic.prefix i.in_name

(* Sorted so the output is byte-stable regardless of each analyzer's
   internal iteration order. *)
let run_all i =
  List.concat_map (fun pass -> run_pass pass i) all_passes
  |> List.stable_sort Diagnostic.compare
