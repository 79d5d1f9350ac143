(* Coarse-grained sweep orchestration: [Driver.figure13] over the worker
   pool must reproduce the sequential sweep bit-for-bit on every benchmark;
   [Moves.reprices]; and the precomputed edge-consumer index behind
   [Sim.edge_values]. *)

module Ir = Impact_cdfg.Ir
module Graph = Impact_cdfg.Graph
module Sim = Impact_sim.Sim
module Scheduler = Impact_sched.Scheduler
module Enc = Impact_sched.Enc
module Binding = Impact_rtl.Binding
module Datapath = Impact_rtl.Datapath
module Estimate = Impact_power.Estimate
module Module_library = Impact_modlib.Module_library
module Suite = Impact_benchmarks.Suite
module Solution = Impact_core.Solution
module Moves = Impact_core.Moves
module Search = Impact_core.Search
module Driver = Impact_core.Driver

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- figure13 over the pool = sequential figure13 -------------------------- *)

let sweep_options =
  { Driver.default_options with depth = 2; max_candidates = 10; max_iterations = 4 }

let sweep ?pool bench =
  let prog = Suite.program bench in
  let workload = bench.Suite.workload ~seed:11 ~passes:15 in
  Driver.figure13 ~options:sweep_options ?pool prog ~workload ~laxities:[ 1.0; 2.0 ]

let design_fingerprint d =
  ( d.Driver.d_solution.Solution.cost,
    d.Driver.d_solution.Solution.area,
    d.Driver.d_solution.Solution.enc,
    d.Driver.d_solution.Solution.vdd,
    List.map Moves.describe d.Driver.d_search.Search.moves_applied )

let point_fingerprint p =
  ( ( p.Driver.sp_laxity,
      p.Driver.sp_a_power,
      p.Driver.sp_i_power,
      p.Driver.sp_i_area,
      p.Driver.sp_a_vdd,
      p.Driver.sp_i_vdd ),
    design_fingerprint p.Driver.sp_area_design,
    design_fingerprint p.Driver.sp_power_design )

let sweep_fingerprint sw =
  ( sw.Driver.sw_base_power,
    sw.Driver.sw_base_area,
    List.map point_fingerprint sw.Driver.sw_points )

let test_sweep_parallel_identical bench () =
  let seq = sweep bench in
  let coarse = Impact_util.Parallel.with_pool ~jobs:4 (fun pool -> sweep ~pool bench) in
  check_bool "pooled sweep = sequential sweep (power, area, Vdd, ENC, moves)" true
    (sweep_fingerprint seq = sweep_fingerprint coarse)

(* --- Moves.reprices -------------------------------------------------------- *)

let make_env bench =
  let prog = Suite.program bench in
  let workload = bench.Suite.workload ~seed:3 ~passes:15 in
  let run = Sim.simulate prog ~workload in
  let cfg =
    Scheduler.config_of_style Scheduler.Wavesched ~clock_ns:bench.Suite.clock_ns
  in
  let b = Binding.parallel prog.Graph.graph Module_library.default in
  let dp = Datapath.build b in
  let stg =
    Scheduler.schedule cfg prog ~delay:(Datapath.delay_model dp)
      ~res:(Datapath.resource_model dp)
  in
  let enc_min = Enc.analytic stg run.Sim.profile in
  let area_ref = Binding.fu_area b +. Binding.reg_area b +. Datapath.mux_area dp in
  {
    Solution.program = prog;
    library = Module_library.default;
    sched_config = cfg;
    est_ctx = Estimate.create_ctx run;
    enc_budget = 2.5 *. enc_min;
    objective = Solution.Minimize_power;
    area_ref;
  }

let test_reprices () =
  let env = make_env Suite.gcd in
  let sol = Solution.initial env in
  check_bool "feasible initial carries a ledger" true (Solution.ledger sol <> None);
  check_bool "split_fu keeps the schedule" true
    (Moves.reprices env sol (Moves.Split_fu (0, [])));
  check_bool "split_reg keeps the schedule" true
    (Moves.reprices env sol (Moves.Split_reg (0, [])));
  check_bool "share_fu reschedules" false
    (Moves.reprices env sol (Moves.Share_fu (0, 1)));
  check_bool "share_reg reschedules" false
    (Moves.reprices env sol (Moves.Share_reg (0, 1)));
  (* Substitution is delta-repriceable exactly when the replacement is not
     slower than the unit's current module (same rule [Moves.apply] uses to
     keep the schedule). *)
  List.iter
    (fun fu ->
      let cur = (Binding.fu_module sol.Solution.binding fu).Module_library.delay_ns in
      List.iter
        (fun spec ->
          let expect = spec.Module_library.delay_ns <= cur +. 1e-9 in
          check_bool
            (Printf.sprintf "substitute fu%d <- %s" fu spec.Module_library.spec_name)
            expect
            (Moves.reprices env sol
               (Moves.Substitute (fu, spec.Module_library.spec_name))))
        (Module_library.all_specs env.Solution.library))
    (Binding.fu_ids sol.Solution.binding);
  (* An infeasible solution has no ledger, so nothing is repriceable. *)
  let tight = { env with Solution.enc_budget = 0. } in
  let infeasible = Solution.initial tight in
  check_bool "infeasible initial has no ledger" true
    (Solution.ledger infeasible = None);
  check_bool "no ledger, no reprice" false
    (Moves.reprices tight infeasible (Moves.Split_fu (0, [])))

(* --- the precomputed edge-consumer index ----------------------------------- *)

(* The reference semantics the index must preserve: first node in graph
   order that reads the edge, lowest port within that node. *)
let expected_consumer g eid =
  Graph.fold_nodes g ~init:None ~f:(fun acc n ->
      match acc with
      | Some _ -> acc
      | None ->
        let found = ref None in
        Array.iteri
          (fun port e -> if e = eid && !found = None then found := Some (n.Ir.n_id, port))
          n.Ir.inputs;
        !found)

let test_edge_consumer_index () =
  List.iter
    (fun bench ->
      let prog = Suite.program bench in
      let workload = bench.Suite.workload ~seed:5 ~passes:10 in
      let run = Sim.simulate prog ~workload in
      let g = prog.Graph.graph in
      for eid = 0 to Graph.edge_count g - 1 do
        check_bool
          (Printf.sprintf "%s edge %d consumer" bench.Suite.bench_name eid)
          true
          (run.Sim.edge_consumer.(eid) = expected_consumer g eid);
        let e = Graph.edge g eid in
        match e.Ir.source with
        | Ir.Primary_input _ -> (
          let vals = Sim.edge_values run eid in
          match expected_consumer g eid with
          | None -> check_int "unread input has an empty trace" 0 (Array.length vals)
          | Some (nid, port) ->
            let evs = Sim.node_events run nid in
            check_bool
              (Printf.sprintf "%s edge %d input trace" bench.Suite.bench_name eid)
              true
              (Array.length vals = Array.length evs
              && Array.for_all2
                   (fun v ev -> Impact_util.Bitvec.equal v ev.Sim.ev_inputs.(port))
                   vals evs))
        | _ -> ()
      done)
    [ Suite.gcd; Suite.loops ]

let () =
  Alcotest.run "impact_parallel_sweep"
    [
      ( "sweep",
        List.map
          (fun b ->
            Alcotest.test_case
              (b.Suite.bench_name ^ " coarse sweep = sequential")
              `Quick
              (test_sweep_parallel_identical b))
          Suite.all );
      ("reprices", [ Alcotest.test_case "classification" `Quick test_reprices ]);
      ( "sim",
        [
          Alcotest.test_case "edge-consumer index" `Quick test_edge_consumer_index;
        ] );
    ]
