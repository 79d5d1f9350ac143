(* Scheduler tests: fragment algebra, leaf scheduling, full schedules of the
   frontend programs, ENC computations, and invariant checks. *)

module Ir = Impact_cdfg.Ir
module Graph = Impact_cdfg.Graph
module Guard = Impact_cdfg.Guard
module Analysis = Impact_cdfg.Analysis
module Elaborate = Impact_lang.Elaborate
module Sim = Impact_sim.Sim
module Stg = Impact_sched.Stg
module Leaf = Impact_sched.Leaf
module Models = Impact_sched.Models
module Scheduler = Impact_sched.Scheduler
module Enc = Impact_sched.Enc
module Check = Impact_sched.Check
module Module_library = Impact_modlib.Module_library
module Rng = Impact_util.Rng
module Fixtures = Impact_benchmarks.Fixtures

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let clock = 15.

let gcd_src =
  {|
process gcd(a : int16, b : int16) -> (r : int16) {
  var x : int16 = a;
  var y : int16 = b;
  while (x != y) {
    if (x > y) { x = x - y; } else { y = y - x; }
  }
  r = x;
}
|}

let parallel_loops_src =
  {|
process two_loops(n : int16, d : int16) -> (s1 : int16, s2 : int16) {
  var acc1 : int16 = 0;
  for (var i : int16 = 0; i < 10; i = i + 1) { acc1 = acc1 + d; }
  var acc2 : int16 = 0;
  for (var j : int16 = 0; j < 10; j = j + 1) { acc2 = acc2 + n; }
  s1 = acc1;
  s2 = acc2;
}
|}

let schedule_of ?(style = Scheduler.Wavesched) src =
  let prog = Elaborate.from_source src in
  let stg = Scheduler.min_enc_schedule style ~clock_ns:clock prog Module_library.default in
  (prog, stg)

let workload_gcd =
  let rng = Rng.create ~seed:3 in
  List.init 40 (fun _ -> [ ("a", Rng.int_in rng 1 100); ("b", Rng.int_in rng 1 100) ])

(* --- Fragment algebra ---------------------------------------------------- *)

let mk_state tag =
  {
    Stg.firings =
      [
        {
          Stg.f_node = tag;
          f_phase = Stg.Normal;
          f_guard = Guard.always;
          f_start_ns = 0.;
          f_finish_ns = 1.;
          f_chain_pos = 0;
        };
      ];
  }

let test_frag_chain () =
  let f = Stg.frag_of_chain [ mk_state 0; mk_state 1; mk_state 2 ] in
  check_int "three states" 3 (Stg.frag_state_count f);
  check_int "one exit" 1 (List.length (Stg.frag_exits f))

let test_frag_seq () =
  let f1 = Stg.frag_of_chain [ mk_state 0 ] in
  let f2 = Stg.frag_of_chain [ mk_state 1; mk_state 2 ] in
  let f = Stg.seq f1 f2 in
  let stg = Stg.instantiate f ~clock_ns:clock in
  check_int "3 states + exit" 4 (Array.length stg.Stg.states);
  check_int "min path" 3 (Enc.min_cycles stg)

let test_frag_par_lockstep () =
  let f1 = Stg.frag_of_chain [ mk_state 0; mk_state 1 ] in
  let f2 = Stg.frag_of_chain [ mk_state 2; mk_state 3 ] in
  let f = Stg.par f1 f2 in
  let stg = Stg.instantiate f ~clock_ns:clock in
  (* Equal lengths advance in lockstep: 2 product states + exit. *)
  check_int "lockstep states" 3 (Array.length stg.Stg.states);
  check_int "parallel time = max" 2 (Enc.min_cycles stg)

let test_frag_par_uneven () =
  let f1 = Stg.frag_of_chain [ mk_state 0 ] in
  let f2 = Stg.frag_of_chain [ mk_state 1; mk_state 2; mk_state 3 ] in
  let f = Stg.par f1 f2 in
  let stg = Stg.instantiate f ~clock_ns:clock in
  check_int "time = longer side" 3 (Enc.min_cycles stg)

(* --- Leaf scheduling ------------------------------------------------------ *)

let leaf_setup () =
  let prog = Fixtures.three_addition () in
  let analysis = Analysis.create prog.Graph.graph in
  let delay, res = Models.parallel_models prog.Graph.graph Module_library.default in
  (prog, analysis, delay, res)

let test_leaf_chains_within_clock () =
  let prog, analysis, delay, res = leaf_setup () in
  (* All six nodes of the fixture as one leaf: +1 and < at time 0; +3/+2
     chained after +1; Sel after the adders; Out after Sel.  Everything fits
     one 15 ns state?  +1 (4ns csel adder fastest) .. chained +3: 4 + 4*1.1 = 8.4;
     Sel: 8.4+3 = 11.4; Out 11.4.  Yes: one state. *)
  let specs = List.map Leaf.normal (Ir.region_nodes prog.Graph.top) in
  let states = Leaf.schedule analysis ~delay ~res ~clock_ns:clock specs in
  check_int "single chained state" 1 (List.length states)

let test_leaf_splits_on_clock () =
  let prog, analysis, delay, res = leaf_setup () in
  let specs = List.map Leaf.normal (Ir.region_nodes prog.Graph.top) in
  (* A 6 ns clock cannot chain adder + adder + mux: expect multiple states. *)
  let states = Leaf.schedule analysis ~delay ~res ~clock_ns:6. specs in
  check_bool "several states" true (List.length states > 1)

let test_leaf_multicycle () =
  let src = "process p(a : int16, b : int16) -> (r : int16) { r = a * b; }" in
  let prog = Elaborate.from_source src in
  let analysis = Analysis.create prog.Graph.graph in
  let delay, res = Models.parallel_models prog.Graph.graph Module_library.default in
  (* Fastest multiplier is 16 ns > 15 ns clock: multi-cycle. *)
  let specs = List.map Leaf.normal (Ir.region_nodes prog.Graph.top) in
  let states = Leaf.schedule analysis ~delay ~res ~clock_ns:clock specs in
  check_bool "at least 2 states" true (List.length states >= 2)

let test_leaf_resource_serialises () =
  let prog, analysis, delay, _res = leaf_setup () in
  (* Force all three adds onto one FU; +2/+3 are exclusive, +1 is not:
     +1 must serialise against the others. *)
  let g = prog.Graph.graph in
  let adds =
    Graph.fold_nodes g ~init:[] ~f:(fun acc n ->
        if n.Ir.kind = Ir.Op_add then n.Ir.n_id :: acc else acc)
  in
  let res =
    { Models.fu_of = (fun nid -> if List.mem nid adds then Some 0 else None);
      pipelined = (fun _ -> false) }
  in
  let specs = List.map Leaf.normal (Ir.region_nodes prog.Graph.top) in
  let states = Leaf.schedule analysis ~delay ~res ~clock_ns:clock specs in
  check_bool "needs 2+ states" true (List.length states >= 2);
  (* +2 and +3 may share a state with guards. *)
  let guarded =
    List.concat_map (fun s -> s.Stg.firings) states
    |> List.filter (fun f -> not (Guard.equal Guard.always f.Stg.f_guard))
  in
  check_bool "mutually exclusive ops guarded when sharing" true
    (List.length guarded = 2 || guarded = [])

let test_leaf_empty () =
  let _, analysis, delay, res = leaf_setup () in
  let states = Leaf.schedule analysis ~delay ~res ~clock_ns:clock [] in
  check_int "one empty state" 1 (List.length states)

(* --- Full schedules ------------------------------------------------------- *)

let test_gcd_schedule_valid () =
  let prog, stg = schedule_of gcd_src in
  Alcotest.(check (list string))
    "no issues" []
    (List.map Impact_util.Diagnostic.to_string (Check.check prog stg))

let test_gcd_baseline_valid () =
  let prog, stg = schedule_of ~style:Scheduler.Baseline gcd_src in
  check_int "no issues" 0 (List.length (Check.check prog stg))

let test_gcd_enc_analytic_vs_mc () =
  let prog, stg = schedule_of gcd_src in
  let run = Sim.simulate prog ~workload:workload_gcd in
  let enc = Enc.analytic stg run.Sim.profile in
  let mc = Enc.monte_carlo stg run.Sim.profile ~rng:(Rng.create ~seed:7) ~passes:3000 in
  check_bool
    (Printf.sprintf "analytic %.2f close to monte-carlo %.2f" enc mc)
    true
    (abs_float (enc -. mc) /. enc < 0.1)

let test_wavesched_beats_baseline () =
  let prog, wstg = schedule_of gcd_src in
  let _, bstg = schedule_of ~style:Scheduler.Baseline gcd_src in
  let run = Sim.simulate prog ~workload:workload_gcd in
  let we = Enc.analytic wstg run.Sim.profile in
  let be = Enc.analytic bstg run.Sim.profile in
  check_bool (Printf.sprintf "wavesched %.1f <= baseline %.1f" we be) true (we <= be +. 1e-6)

let test_parallel_loops_overlap () =
  let prog = Elaborate.from_source parallel_loops_src in
  let wstg =
    Scheduler.min_enc_schedule Scheduler.Wavesched ~clock_ns:clock prog
      Module_library.default
  in
  let bstg =
    Scheduler.min_enc_schedule Scheduler.Baseline ~clock_ns:clock prog
      Module_library.default
  in
  let rng = Rng.create ~seed:5 in
  let workload = List.init 10 (fun _ -> [ ("n", Rng.int_in rng 0 50); ("d", 3) ]) in
  let run = Sim.simulate prog ~workload in
  let we = Enc.analytic wstg run.Sim.profile in
  let be = Enc.analytic bstg run.Sim.profile in
  (* The two loops overlap under Wavesched: materially fewer cycles. *)
  check_bool (Printf.sprintf "wavesched %.1f well below baseline %.1f" we be) true
    (we < 0.75 *. be)

let test_three_addition_stg_shape () =
  let prog = Fixtures.three_addition () in
  let stg =
    Scheduler.min_enc_schedule Scheduler.Wavesched ~clock_ns:clock prog
      Module_library.default
  in
  (* Flattened: everything chains into one state plus the exit. *)
  check_int "one state" 1 (Stg.state_count stg);
  check_int "min cycles 1" 1 (Enc.min_cycles stg)

let test_three_addition_baseline_shape () =
  let prog = Fixtures.three_addition () in
  let stg =
    Scheduler.min_enc_schedule Scheduler.Baseline ~clock_ns:clock prog
      Module_library.default
  in
  (* Baseline: cond state, branch states, sel state, output state...
     at least three states, exactly like the STG of Figure 6's shape. *)
  check_bool "three or more states" true (Stg.state_count stg >= 3);
  check_int "no issues" 0 (List.length (Check.check prog stg))

let test_min_cycles_loop_free_path () =
  let _, stg = schedule_of gcd_src in
  (* Shortest path: zero-iteration GCD (a = b): header + elp + out. *)
  check_bool "short path small" true (Enc.min_cycles stg <= 5)

let test_enc_scales_with_iterations () =
  let prog, stg = schedule_of gcd_src in
  let short = Sim.simulate prog ~workload:[ [ ("a", 5); ("b", 5) ] ] in
  let long = Sim.simulate prog ~workload:[ [ ("a", 100); ("b", 1) ] ] in
  let enc_short = Enc.analytic stg short.Sim.profile in
  let enc_long = Enc.analytic stg long.Sim.profile in
  check_bool
    (Printf.sprintf "more iterations -> larger ENC (%.1f < %.1f)" enc_short enc_long)
    true (enc_short < enc_long)

let test_probabilities_normalised () =
  let prog, stg = schedule_of gcd_src in
  let run = Sim.simulate prog ~workload:workload_gcd in
  let probs = Enc.transition_probabilities stg run.Sim.profile in
  Array.iteri
    (fun s succ ->
      if s <> stg.Stg.exit_id then begin
        let total = List.fold_left (fun acc (_, p) -> acc +. p) 0. succ in
        check_bool (Printf.sprintf "state %d sums to 1" s) true (abs_float (total -. 1.) < 1e-9)
      end)
    probs

(* --- Force-directed scheduling [23] ---------------------------------------- *)

module Force_directed = Impact_sched.Force_directed
module Module_library2 = Impact_modlib.Module_library

let fd_setup src =
  let prog = Elaborate.from_source src in
  let analysis = Analysis.create prog.Graph.graph in
  let delay, _ = Models.parallel_models prog.Graph.graph Module_library.default in
  let ops =
    Graph.fold_nodes prog.Graph.graph ~init:[] ~f:(fun acc n ->
        if Module_library.class_of_op n.Ir.kind <> None then n.Ir.n_id :: acc else acc)
    |> List.rev
  in
  (prog, analysis, delay, ops)

let four_muls_src =
  "process p(a : int16, b : int16) -> (r : int16) { var m1 : int16 = a * b; var m2 : int16 = a * a; var m3 : int16 = b * b; var m4 : int16 = (a + 1) * (b + 1); r = m1 + m2 + m3 + m4; }"

let peak_of result cls =
  Option.value (List.assoc_opt cls result.Force_directed.peak_usage) ~default:0

let test_fd_respects_dependences () =
  let prog, analysis, delay, ops = fd_setup four_muls_src in
  let result = Force_directed.schedule analysis ~delay ~clock_ns:clock ops in
  let step_of =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun p -> Hashtbl.replace tbl p.Force_directed.fd_node (p.Force_directed.fd_step, p.Force_directed.fd_duration))
      result.Force_directed.placements;
    tbl
  in
  Graph.iter_nodes prog.Graph.graph ~f:(fun n ->
      match Hashtbl.find_opt step_of n.Ir.n_id with
      | None -> ()
      | Some (step, _) ->
        Array.iter
          (fun eid ->
            match (Graph.edge prog.Graph.graph eid).Ir.source with
            | Ir.From_node src -> (
              match Hashtbl.find_opt step_of src with
              | Some (pstep, pdur) ->
                check_bool
                  (Printf.sprintf "dep n%d -> n%d" src n.Ir.n_id)
                  true
                  (pstep + pdur <= step)
              | None -> ())
            | Ir.Const _ | Ir.Primary_input _ -> ())
          n.Ir.inputs)

let test_fd_balances_multipliers () =
  let _, analysis, delay, ops = fd_setup four_muls_src in
  let asap = Force_directed.asap analysis ~delay ~clock_ns:clock ops in
  (* ASAP fires all four independent multiplications together. *)
  check_int "asap mul peak" 4 (peak_of asap Module_library2.Class_mul);
  (* Doubling the latency lets the balancer halve the peak. *)
  let relaxed =
    Force_directed.schedule analysis ~delay ~clock_ns:clock
      ~latency:(asap.Force_directed.latency * 2) ops
  in
  check_bool
    (Printf.sprintf "fds mul peak %d <= 2" (peak_of relaxed Module_library2.Class_mul))
    true
    (peak_of relaxed Module_library2.Class_mul <= 2)

let test_fd_latency_bound_respected () =
  let _, analysis, delay, ops = fd_setup four_muls_src in
  let result =
    Force_directed.schedule analysis ~delay ~clock_ns:clock ~latency:12 ops
  in
  List.iter
    (fun p ->
      check_bool "within latency" true
        (p.Force_directed.fd_step + p.Force_directed.fd_duration <= 12))
    result.Force_directed.placements

let test_fd_rejects_tight_latency () =
  let _, analysis, delay, ops = fd_setup four_muls_src in
  match Force_directed.schedule analysis ~delay ~clock_ns:clock ~latency:1 ops with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected latency rejection"

let test_fd_paulin_body () =
  (* The classic demonstration target: Paulin's six multiplications. *)
  let bench = Impact_benchmarks.Suite.paulin in
  let prog = Elaborate.from_source bench.Impact_benchmarks.Suite.source in
  let analysis = Analysis.create prog.Graph.graph in
  let delay, _ = Models.parallel_models prog.Graph.graph Module_library.default in
  let muls =
    Graph.fold_nodes prog.Graph.graph ~init:[] ~f:(fun acc n ->
        if Module_library.class_of_op n.Ir.kind <> None then n.Ir.n_id :: acc else acc)
  in
  let asap = Force_directed.asap analysis ~delay ~clock_ns:15. muls in
  let fds =
    Force_directed.schedule analysis ~delay ~clock_ns:15.
      ~latency:(asap.Force_directed.latency + 4) muls
  in
  check_bool "fds peak <= asap peak" true
    (peak_of fds Module_library2.Class_mul <= peak_of asap Module_library2.Class_mul)

let () =
  Alcotest.run "impact_sched"
    [
      ( "frag",
        [
          Alcotest.test_case "chain" `Quick test_frag_chain;
          Alcotest.test_case "seq" `Quick test_frag_seq;
          Alcotest.test_case "par lockstep" `Quick test_frag_par_lockstep;
          Alcotest.test_case "par uneven" `Quick test_frag_par_uneven;
        ] );
      ( "leaf",
        [
          Alcotest.test_case "chains within clock" `Quick test_leaf_chains_within_clock;
          Alcotest.test_case "splits on clock" `Quick test_leaf_splits_on_clock;
          Alcotest.test_case "multicycle" `Quick test_leaf_multicycle;
          Alcotest.test_case "resource serialises" `Quick test_leaf_resource_serialises;
          Alcotest.test_case "empty leaf" `Quick test_leaf_empty;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "gcd wavesched valid" `Quick test_gcd_schedule_valid;
          Alcotest.test_case "gcd baseline valid" `Quick test_gcd_baseline_valid;
          Alcotest.test_case "enc analytic vs mc" `Quick test_gcd_enc_analytic_vs_mc;
          Alcotest.test_case "wavesched <= baseline" `Quick test_wavesched_beats_baseline;
          Alcotest.test_case "parallel loops overlap" `Quick test_parallel_loops_overlap;
          Alcotest.test_case "3-addition one state" `Quick test_three_addition_stg_shape;
          Alcotest.test_case "3-addition baseline" `Quick test_three_addition_baseline_shape;
          Alcotest.test_case "min cycles" `Quick test_min_cycles_loop_free_path;
          Alcotest.test_case "enc grows with iters" `Quick test_enc_scales_with_iterations;
          Alcotest.test_case "probabilities normalised" `Quick test_probabilities_normalised;
        ] );
      ( "force-directed",
        [
          Alcotest.test_case "dependences" `Quick test_fd_respects_dependences;
          Alcotest.test_case "balances muls" `Quick test_fd_balances_multipliers;
          Alcotest.test_case "latency bound" `Quick test_fd_latency_bound_respected;
          Alcotest.test_case "tight latency" `Quick test_fd_rejects_tight_latency;
          Alcotest.test_case "paulin body" `Quick test_fd_paulin_body;
        ] );
    ]
