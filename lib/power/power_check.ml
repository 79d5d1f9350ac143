module Ir = Impact_cdfg.Ir
module Graph = Impact_cdfg.Graph
module Sim = Impact_sim.Sim
module Profile = Impact_sim.Profile
module Diagnostic = Impact_util.Diagnostic

let check_ledger lg =
  List.filter_map
    (fun (term, v) ->
      let path () = "ledger/" ^ Estimate.term_label term in
      if Float.is_nan v || not (Float.is_finite v) then
        Some
          (Diagnostic.error ~rule:"power/negative-term" ~path:(path ())
             "term is not finite (%f)" v)
      else if v < 0. then
        Some (Diagnostic.error ~rule:"power/negative-term" ~path:(path ()) "term is negative (%f)" v)
      else None)
    (Estimate.ledger_entries lg)

(* Every guard evaluation the simulator profiles corresponds to one firing
   of the condition edge's producer (the simulator records the outcome
   exactly when it reads the edge, and node-produced condition values are
   read once per firing).  A mismatch means the profile and the traces
   describe different executions, which silently corrupts both the ENC
   Markov chain and the mux propagation probabilities. *)
let check_run (run : Sim.run) =
  let g = run.Sim.program.Graph.graph in
  let cond_edges = Hashtbl.create 16 in
  let rec collect = function
    | Ir.R_ops _ -> ()
    | Ir.R_seq rs -> List.iter collect rs
    | Ir.R_if { cond_edge; then_r; else_r; _ } ->
      Hashtbl.replace cond_edges cond_edge ();
      collect then_r;
      collect else_r
    | Ir.R_loop { cond_edge; cond_r; body; _ } ->
      Hashtbl.replace cond_edges cond_edge ();
      collect cond_r;
      collect body
  in
  collect run.Sim.program.Graph.top;
  Hashtbl.fold
    (fun eid () acc ->
      match (Graph.edge g eid).Ir.source with
      | Ir.From_node src ->
        let profiled = Profile.cond_evaluations run.Sim.profile eid in
        let traced = Sim.count run src in
        if profiled <> traced then
          Diagnostic.error ~rule:"power/trace-profile-mismatch"
            ~path:(Printf.sprintf "edge e%d" eid)
            "profile saw %d evaluations but producer n%d fired %d times"
            profiled src traced
          :: acc
        else acc
      | Ir.Const _ | Ir.Primary_input _ -> acc)
    cond_edges []

let check ?ledger run =
  check_run run
  @ match ledger with Some lg -> check_ledger lg | None -> []
