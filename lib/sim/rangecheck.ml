module Ir = Impact_cdfg.Ir
module Graph = Impact_cdfg.Graph
module Ranges = Impact_cdfg.Ranges
module Bitvec = Impact_util.Bitvec

exception Violation of string

let describe_av = function
  | Ranges.Bot -> "unreachable"
  | Ranges.Fact f ->
    Printf.sprintf "[%d,%d] zeros=%#x ones=%#x" f.Ranges.f_lo f.Ranges.f_hi
      f.Ranges.f_zeros f.Ranges.f_ones

let check analysis run =
  let g = run.Sim.program.Graph.graph in
  Graph.iter_nodes g ~f:(fun n ->
      let nid = n.Ir.n_id in
      let av = Ranges.node_fact analysis nid and width = Sim.output_width run nid in
      for i = 0 to Sim.count run nid - 1 do
        let v = Bitvec.make ~width (Sim.output run nid i) in
        if not (Ranges.mem av v) then
          raise
            (Violation
               (Printf.sprintf
                  "%s: node n%d (%s) produced %s outside its inferred fact %s (pass %d)"
                  run.Sim.program.Graph.prog_name nid n.Ir.n_name (Bitvec.to_string v)
                  (describe_av av) (Sim.pass run nid i)))
      done)

let check_run run = check (Ranges.analyze run.Sim.program) run
