module Ir = Impact_cdfg.Ir
module Graph = Impact_cdfg.Graph
module Stg = Impact_sched.Stg
module Binding = Impact_rtl.Binding
module Datapath = Impact_rtl.Datapath
module Muxnet = Impact_rtl.Muxnet
module Module_library = Impact_modlib.Module_library
module Measure = Impact_power.Measure
module Breakdown = Impact_power.Breakdown
module Estimate = Impact_power.Estimate
module Table = Impact_util.Table

let render (design : Driver.design) (program : Graph.program) ~workload =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt in
  let sol = design.Driver.d_solution in
  let g = program.Graph.graph in
  let b = sol.Solution.binding in
  let dp = sol.Solution.dp in
  let stg = sol.Solution.stg in
  add "================================================================";
  add "design report: %s (%s, laxity %.2f)" program.Graph.prog_name
    (match design.Driver.d_objective with
    | Solution.Minimize_power -> "power-optimized"
    | Solution.Minimize_area -> "area-optimized")
    design.Driver.d_laxity;
  add "================================================================";
  add "";
  add "performance: enc_min %.2f, budget %.2f, achieved %.2f, vdd %.2f V"
    design.Driver.d_enc_min design.Driver.d_enc_budget sol.Solution.enc sol.Solution.vdd;
  add "area: %.0f   estimated power: %.4f" sol.Solution.area
    (Solution.est sol).Estimate.est_power;
  add "";
  (* Moves. *)
  add "moves applied (%d candidate evaluations, %d improvement sequences):"
    design.Driver.d_search.Search.candidates_evaluated
    design.Driver.d_search.Search.sequences_applied;
  (match design.Driver.d_search.Search.moves_applied with
  | [] -> add "  (none: the parallel architecture was already optimal)"
  | moves -> List.iter (fun m -> add "  %s" (Moves.describe m)) moves);
  add "";
  (* Functional units. *)
  let t =
    Table.create ~title:"functional units"
      [ ("unit", Table.Left); ("module", Table.Left); ("width", Table.Right);
        ("operations", Table.Left) ]
  in
  List.iter
    (fun fu ->
      Table.add_row t
        [
          Printf.sprintf "fu%d" fu;
          (Binding.fu_module b fu).Module_library.spec_name;
          string_of_int (Binding.fu_width b fu);
          String.concat " "
            (List.map (fun nid -> (Graph.node g nid).Ir.n_name) (Binding.fu_ops b fu));
        ])
    (Binding.fu_ids b);
  Buffer.add_string buf (Table.render t);
  add "";
  (* Registers. *)
  let t =
    Table.create ~title:"registers"
      [ ("register", Table.Left); ("width", Table.Right); ("values", Table.Left) ]
  in
  List.iter
    (fun reg ->
      let holders =
        List.map (fun nid -> (Graph.node g nid).Ir.n_name) (Binding.reg_values b reg)
        @ List.map (fun n -> n ^ " (input)") (Binding.reg_input_names b reg)
      in
      Table.add_row t
        [
          Printf.sprintf "r%d" reg;
          string_of_int (Binding.reg_width b reg);
          String.concat " " holders;
        ])
    (Binding.reg_ids b);
  Buffer.add_string buf (Table.render t);
  add "";
  (* Mux networks. *)
  if Datapath.network_count dp = 0 then add "steering networks: none (fully parallel)"
  else begin
    let t =
      Table.create ~title:"steering networks"
        [ ("port", Table.Left); ("leaves", Table.Right); ("max depth", Table.Right);
          ("restructured", Table.Left) ]
    in
    Array.iter
      (fun net ->
        let port_name =
          match net.Datapath.net_port with
          | Datapath.P_fu_input (fu, p) -> Printf.sprintf "fu%d input %d" fu p
          | Datapath.P_reg_write reg -> Printf.sprintf "r%d write" reg
        in
        Table.add_row t
          [
            port_name;
            string_of_int (Array.length net.Datapath.net_keys);
            string_of_int (Muxnet.max_depth net.Datapath.net);
            (if List.mem net.Datapath.net_port sol.Solution.restructured then "huffman"
             else "balanced");
          ])
      (Datapath.networks dp);
    Buffer.add_string buf (Table.render t);
    add ""
  end;
  (* Schedule. *)
  add "schedule: %d states, clock %.1f ns, critical path %.1f ns"
    (Stg.state_count stg) stg.Stg.clock_ns (Stg.critical_path_ns stg);
  Buffer.add_string buf (Format.asprintf "%a" Stg.pp stg);
  add "";
  (* Measured power. *)
  let m = Measure.measure program stg dp ~workload ~vdd:sol.Solution.vdd () in
  add "measured at %.2f V: power %.4f, mean %.1f cycles per pass" sol.Solution.vdd
    m.Measure.m_power m.Measure.m_mean_cycles;
  Buffer.add_string buf (Format.asprintf "breakdown: %a@." Breakdown.pp m.Measure.m_breakdown);
  Buffer.contents buf

let print design program ~workload = print_string (render design program ~workload)
