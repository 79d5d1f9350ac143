(* The experiment report: one section per paper table/figure (see
   DESIGN.md's per-experiment index), plus ablations and extension studies.
   Wall-time measurement belongs to perfbench/; the engine's properties
   (warm store answers, pool independence) are counter checks in
   test/.

   Usage:
     dune exec bench/main.exe                 -- run everything
     dune exec bench/main.exe -- --quick      -- smaller sweeps
     dune exec bench/main.exe -- --jobs 4     -- sections + sweeps on 4 domains
     dune exec bench/main.exe -- fig13-gcd mux-example ...   -- selection

   Every section renders into its own buffer, so with [--jobs N] whole
   sections (and the sweep points inside them) fan out over one worker
   pool while stdout stays byte-identical to the sequential run: buffers
   are printed in selection order regardless of completion order. *)

module Ir = Impact_cdfg.Ir
module Graph = Impact_cdfg.Graph
module Elaborate = Impact_lang.Elaborate
module Sim = Impact_sim.Sim
module Scheduler = Impact_sched.Scheduler
module Enc = Impact_sched.Enc
module Binding = Impact_rtl.Binding
module Datapath = Impact_rtl.Datapath
module Muxnet = Impact_rtl.Muxnet
module Rtl_sim = Impact_rtl.Rtl_sim
module Traces = Impact_power.Traces
module Estimate = Impact_power.Estimate
module Measure = Impact_power.Measure
module Breakdown = Impact_power.Breakdown
module Vdd = Impact_power.Vdd
module Module_library = Impact_modlib.Module_library
module Rng = Impact_util.Rng
module Stats = Impact_util.Stats
module Table = Impact_util.Table
module Suite = Impact_benchmarks.Suite
module Fixtures = Impact_benchmarks.Fixtures
module Solution = Impact_core.Solution
module Driver = Impact_core.Driver
module Parallel = Impact_util.Parallel

let quick = ref false

(* Section-level concurrency: [--jobs N] (0 = auto-detect).  The pool,
   when present, is shared by the section fan-out and by the Figure-13
   sweeps inside the sections (nested [Parallel.map] calls are safe: a
   caller drains its own batch). *)
let bench_jobs = ref 1
let bench_pool : Parallel.pool option ref = ref None

(* Buffered printing: sections write here, never to stdout directly. *)
let pf = Printf.bprintf
let ps = Buffer.add_string
let ptable buf t = Buffer.add_string buf (Table.render t)

let sweep_passes () = if !quick then 25 else 60

let laxities () =
  if !quick then [ 1.0; 2.0; 3.0 ]
  else [ 1.0; 1.25; 1.5; 1.75; 2.0; 2.25; 2.5; 2.75; 3.0 ]

let options () =
  if !quick then
    { Driver.default_options with depth = 3; max_candidates = 16; max_iterations = 12 }
  else Driver.default_options

(* Sweeps are shared between the fig13 sections and the summary; memoized.
   The mutex makes the memo safe under the section fan-out; the sweep
   itself is deterministic, so a lost race merely recomputes an identical
   value (the prefetch in the main loop avoids even that). *)
let sweep_cache : (string, Driver.sweep) Hashtbl.t = Hashtbl.create 8
let sweep_lock = Mutex.create ()

let sweep_of bench =
  let key = bench.Suite.bench_name in
  match Mutex.protect sweep_lock (fun () -> Hashtbl.find_opt sweep_cache key) with
  | Some s -> s
  | None ->
    let prog = Suite.program bench in
    let workload = bench.Suite.workload ~seed:2026 ~passes:(sweep_passes ()) in
    let s =
      Driver.figure13 ~options:(options ()) ?pool:!bench_pool prog ~workload
        ~laxities:(laxities ())
    in
    Mutex.protect sweep_lock (fun () ->
        match Hashtbl.find_opt sweep_cache key with
        | Some s -> s
        | None ->
          Hashtbl.add sweep_cache key s;
          s)

(* ------------------------------------------------------------------ *)
(* E1-E6: Figure 13 — normalized power and area vs laxity factor       *)
(* ------------------------------------------------------------------ *)

let fig13_section bench buf =
  let sweep = sweep_of bench in
  let t =
    Table.create
      ~title:
        (Printf.sprintf "Figure 13 (%s): normalized power and area vs laxity factor"
           bench.Suite.bench_name)
      [
        ("laxity", Table.Right);
        ("A-Power", Table.Right);
        ("I-Power", Table.Right);
        ("I-Area", Table.Right);
        ("A-Vdd", Table.Right);
        ("I-Vdd", Table.Right);
      ]
  in
  List.iter
    (fun p ->
      Table.add_float_row t ~decimals:3
        (Printf.sprintf "%.2f" p.Driver.sp_laxity)
        [
          p.Driver.sp_a_power;
          p.Driver.sp_i_power;
          p.Driver.sp_i_area;
          p.Driver.sp_a_vdd;
          p.Driver.sp_i_vdd;
        ])
    sweep.Driver.sw_points;
  ptable buf t;
  pf buf
    "(normalized to the laxity-1.0 area-optimized design at 5 V: power %.4f, area %.0f)\n\n"
    sweep.Driver.sw_base_power sweep.Driver.sw_base_area

(* ------------------------------------------------------------------ *)
(* E7: the worked multiplexer example of Section 3.2.1                  *)
(* ------------------------------------------------------------------ *)

let mux_example buf =
  let a i = fst Fixtures.mux_example_signals.(i) in
  let p i = snd Fixtures.mux_example_signals.(i) in
  let balanced = Muxnet.create ~n_leaves:4 in
  let restructured = Muxnet.create ~n_leaves:4 in
  Muxnet.restructure restructured ~ap:(fun i -> (a i, p i));
  let act_bal = Muxnet.tree_activity balanced ~a ~p in
  let act_res = Muxnet.tree_activity restructured ~a ~p in
  let t =
    Table.create ~title:"Mux example (Figures 8-10): tree activity by Equation (7)"
      [ ("tree", Table.Left); ("activity", Table.Right); ("paper", Table.Right) ]
  in
  Table.add_row t [ "balanced ((e1,e2),(e3,e4))"; Printf.sprintf "%.3f" act_bal; "1.09" ];
  Table.add_row t [ "Huffman-restructured"; Printf.sprintf "%.3f" act_res; "0.72" ];
  Table.add_row t
    [ "reduction"; Printf.sprintf "%.0f%%" (100. *. (1. -. (act_res /. act_bal))); "34%" ];
  ptable buf t;
  let t2 =
    Table.create ~title:"Restructured leaf depths (e1 must be nearest the output)"
      [ ("signal", Table.Left); ("ap", Table.Right); ("depth", Table.Right) ]
  in
  Array.iteri
    (fun i (ai, pi) ->
      Table.add_row t2
        [
          Printf.sprintf "e%d" (i + 1);
          Printf.sprintf "%.3f" (ai *. pi);
          string_of_int (Muxnet.depth_of_leaf restructured i);
        ])
    Fixtures.mux_example_signals;
  ptable buf t2;
  (* The paper backs the activity claim with switch-level power (10.1 mW vs
     6.0 mW).  Our substitute: relative mux-network power is activity x cap,
     so the ratio of tree activities stands in for the power ratio. *)
  pf buf
    "power ratio restructured/balanced: %.2f (paper: %.2f from 6.0/10.1 mW, layout-level)\n\n"
    (act_res /. act_bal) (6.0 /. 10.1)

(* ------------------------------------------------------------------ *)
(* E8: trace manipulation vs re-simulation                              *)
(* ------------------------------------------------------------------ *)

let trace_manip buf =
  let prog, _edges = Fixtures.three_addition_edges () in
  let rng = Rng.create ~seed:7 in
  let passes = if !quick then 500 else 3000 in
  let workload =
    List.init passes (fun _ ->
        [
          ("a", Rng.int_in rng 0 30000);
          ("b", Rng.int_in rng 0 30000);
          ("c", Rng.int_in rng 0 3);
          ("d", Rng.int_in rng 0 30000);
          ("e", Rng.int_in rng 0 30000);
        ])
  in
  let t0 = Unix.gettimeofday () in
  let run = Sim.simulate prog ~workload in
  let t1 = Unix.gettimeofday () in
  let adds =
    Graph.fold_nodes prog.Graph.graph ~init:[] ~f:(fun acc n ->
        if n.Ir.kind = Ir.Op_add then n.Ir.n_id :: acc else acc)
    |> List.rev
  in
  (* Every timed row is the median of five calls, so one collector slice
     does not decide it. *)
  let median_of_5 f =
    let times =
      List.init 5 (fun _ ->
          let t = Unix.gettimeofday () in
          ignore (f ());
          Unix.gettimeofday () -. t)
    in
    List.nth (List.sort Float.compare times) 2
  in
  (* Trace manipulation: merge the recorded traces (a resource-sharing move
     mapping +1,+2,+3 onto one adder), against re-simulation: run the
     behavioral simulation again and merge. *)
  let merged = Traces.unit_trace run adds in
  let merged2 = Traces.unit_trace (Sim.simulate prog ~workload) adds in
  let manip = median_of_5 (fun () -> Traces.unit_trace run adds) in
  let resim = median_of_5 (fun () -> Traces.unit_trace (Sim.simulate prog ~workload) adds) in
  let equal =
    Array.length merged = Array.length merged2
    && Array.for_all2
         (fun e1 e2 ->
           e1.Traces.tr_node = e2.Traces.tr_node
           && Impact_util.Bitvec.equal e1.Traces.tr_output e2.Traces.tr_output)
         merged merged2
  in
  (* The same move as the estimator prices it: the unit's input and output
     switching, folded over the merge without materialising it, from the
     recorded traces and then from a fresh simulation. *)
  let stats = Traces.unit_switching_stats run adds in
  let stats2 = Traces.unit_switching_stats (Sim.simulate prog ~workload) adds in
  let stats_manip = median_of_5 (fun () -> Traces.unit_switching_stats run adds) in
  let stats_resim =
    median_of_5 (fun () -> Traces.unit_switching_stats (Sim.simulate prog ~workload) adds)
  in
  let t =
    Table.create ~title:"Trace manipulation vs re-simulation (3-addition example)"
      [ ("quantity", Table.Left); ("value", Table.Right) ]
  in
  Table.add_row t [ "workload passes"; string_of_int passes ];
  Table.add_row t
    [ "initial simulation (once)"; Printf.sprintf "%.1f ms" (1000. *. (t1 -. t0)) ];
  Table.add_row t [ "merged trace rows"; string_of_int (Array.length merged) ];
  Table.add_row t [ "trace-manipulation time"; Printf.sprintf "%.2f ms" (1000. *. manip) ];
  Table.add_row t [ "re-simulation time"; Printf.sprintf "%.2f ms" (1000. *. resim) ];
  Table.add_row t
    [ "speedup per move"; Printf.sprintf "%.1fx" (resim /. Float.max 1e-6 manip) ];
  Table.add_row t [ "merged trace equals re-simulated trace"; string_of_bool equal ];
  Table.add_row t
    [ "switching-stats time"; Printf.sprintf "%.2f ms" (1000. *. stats_manip) ];
  Table.add_row t
    [ "re-simulation + switching stats"; Printf.sprintf "%.2f ms" (1000. *. stats_resim) ];
  Table.add_row t
    [
      "speedup per priced move";
      Printf.sprintf "%.1fx" (stats_resim /. Float.max 1e-6 stats_manip);
    ];
  Table.add_row t [ "switching stats equal re-simulated"; string_of_bool (stats = stats2) ];
  ptable buf t;
  Buffer.add_char buf '\n'

(* ------------------------------------------------------------------ *)
(* E9: Wavesched vs loop-directed baseline (ENC)                        *)
(* ------------------------------------------------------------------ *)

let enc_compare buf =
  let t =
    Table.create
      ~title:"ENC: Wavesched-style vs loop-directed baseline (parallel architecture)"
      [
        ("benchmark", Table.Left);
        ("wavesched", Table.Right);
        ("baseline", Table.Right);
        ("ratio", Table.Right);
        ("rtl-wave", Table.Right);
        ("rtl-base", Table.Right);
      ]
  in
  List.iter
    (fun bench ->
      let prog = Suite.program bench in
      let workload = bench.Suite.workload ~seed:99 ~passes:(sweep_passes ()) in
      let run = Sim.simulate prog ~workload in
      (* Both styles schedule the same parallel architecture: build the
         binding and datapath once and share them across the pair. *)
      let b = Binding.parallel prog.Graph.graph Module_library.default in
      let dp = Datapath.build b in
      let schedule style =
        Scheduler.schedule
          (Scheduler.config_of_style style ~clock_ns:bench.Suite.clock_ns)
          prog ~delay:(Datapath.delay_model dp) ~res:(Datapath.resource_model dp)
      in
      let wstg = schedule Scheduler.Wavesched in
      let bstg = schedule Scheduler.Baseline in
      let we = Enc.analytic wstg run.Sim.profile in
      let be = Enc.analytic bstg run.Sim.profile in
      let rtl_w = (Rtl_sim.simulate prog wstg b ~workload).Rtl_sim.mean_cycles in
      let rtl_b = (Rtl_sim.simulate prog bstg b ~workload).Rtl_sim.mean_cycles in
      Table.add_row t
        [
          bench.Suite.bench_name;
          Printf.sprintf "%.1f" we;
          Printf.sprintf "%.1f" be;
          Printf.sprintf "%.2fx" (be /. we);
          Printf.sprintf "%.1f" rtl_w;
          Printf.sprintf "%.1f" rtl_b;
        ])
    Suite.all;
  ptable buf t;
  ps buf
    "(the paper cites up to 5x ENC reduction for Wavesched over [9]/[17]-style\n\
     scheduling; the ratio is workload- and benchmark-dependent)\n\n"

(* ------------------------------------------------------------------ *)
(* E10: power breakdown of area-optimized designs (mux share, [13])     *)
(* ------------------------------------------------------------------ *)

let power_breakdown buf =
  let t =
    Table.create
      ~title:
        "Component power of area-optimized designs at laxity 2.0 (measured, 5 V)"
      [
        ("benchmark", Table.Left);
        ("fu%", Table.Right);
        ("reg%", Table.Right);
        ("mux%", Table.Right);
        ("ctrl%", Table.Right);
        ("clock%", Table.Right);
        ("wire%", Table.Right);
      ]
  in
  List.iter
    (fun bench ->
      let prog = Suite.program bench in
      let workload = bench.Suite.workload ~seed:123 ~passes:(sweep_passes ()) in
      let d =
        Driver.synthesize ~options:(options ()) prog ~workload
          ~objective:Solution.Minimize_area ~laxity:2.0 ()
      in
      let m = Driver.measure d prog ~workload ~vdd:Vdd.nominal () in
      let bd = m.Measure.m_breakdown in
      let tot = Breakdown.total bd in
      let pct x = Printf.sprintf "%.0f" (100. *. x /. tot) in
      Table.add_row t
        [
          bench.Suite.bench_name;
          pct bd.Breakdown.p_fu;
          pct bd.Breakdown.p_reg;
          pct bd.Breakdown.p_mux;
          pct bd.Breakdown.p_ctrl;
          pct bd.Breakdown.p_clock;
          pct bd.Breakdown.p_wire;
        ])
    Suite.all;
  ptable buf t;
  ps buf
    "([13] reports that multiplexer networks can consume more than 40% of a\n\
     CFI circuit's power, the motivation for the restructuring move)\n\n"

(* ------------------------------------------------------------------ *)
(* E11: headline summary                                                *)
(* ------------------------------------------------------------------ *)

let summary buf =
  let t =
    Table.create
      ~title:"Headline (paper: up to 6.7x vs base, up to 2.6x vs Vdd-scaled, area <= +30%)"
      [
        ("benchmark", Table.Left);
        ("max vs base", Table.Right);
        ("max vs A-Power", Table.Right);
        ("max area ovh", Table.Right);
      ]
  in
  let best_red = ref 0. and best_ratio = ref 0. and worst_area = ref 0. in
  List.iter
    (fun bench ->
      let sweep = sweep_of bench in
      let max_red, max_ratio, max_area =
        List.fold_left
          (fun (r, q, a) p ->
            ( Float.max r (1. /. Float.max 1e-9 p.Driver.sp_i_power),
              Float.max q (p.Driver.sp_a_power /. Float.max 1e-9 p.Driver.sp_i_power),
              Float.max a p.Driver.sp_i_area ))
          (0., 0., 0.) sweep.Driver.sw_points
      in
      best_red := Float.max !best_red max_red;
      best_ratio := Float.max !best_ratio max_ratio;
      worst_area := Float.max !worst_area max_area;
      Table.add_row t
        [
          bench.Suite.bench_name;
          Printf.sprintf "%.1fx" max_red;
          Printf.sprintf "%.1fx" max_ratio;
          Printf.sprintf "%+.0f%%" (100. *. (max_area -. 1.));
        ])
    Suite.all;
  Table.add_row t
    [
      "BEST/WORST";
      Printf.sprintf "%.1fx" !best_red;
      Printf.sprintf "%.1fx" !best_ratio;
      Printf.sprintf "%+.0f%%" (100. *. (!worst_area -. 1.));
    ];
  ptable buf t;
  Buffer.add_char buf '\n'

(* ------------------------------------------------------------------ *)
(* E12: estimator fidelity                                              *)
(* ------------------------------------------------------------------ *)

let estimator_fidelity buf =
  let ratios = Stats.create () in
  let est_series = ref [] and meas_series = ref [] in
  let t =
    Table.create ~title:"Estimator vs detailed measurement (5 V, per design)"
      [
        ("design", Table.Left);
        ("estimate", Table.Right);
        ("measured", Table.Right);
        ("ratio", Table.Right);
      ]
  in
  List.iter
    (fun bench ->
      let prog = Suite.program bench in
      let workload = bench.Suite.workload ~seed:321 ~passes:(sweep_passes ()) in
      let run = Sim.simulate prog ~workload in
      let ctx = Estimate.create_ctx run in
      let record name dp stg =
        let est = (Estimate.estimate ctx ~stg ~dp ()).Estimate.est_power in
        let meas = (Measure.measure prog stg dp ~workload ()).Measure.m_power in
        Stats.add ratios (est /. meas);
        est_series := est :: !est_series;
        meas_series := meas :: !meas_series;
        Table.add_row t
          [
            name;
            Printf.sprintf "%.4f" est;
            Printf.sprintf "%.4f" meas;
            Printf.sprintf "%.2f" (est /. meas);
          ]
      in
      let b = Binding.parallel prog.Graph.graph Module_library.default in
      let dp = Datapath.build b in
      let stg =
        Scheduler.schedule
          (Scheduler.config_of_style Scheduler.Wavesched ~clock_ns:bench.Suite.clock_ns)
          prog ~delay:(Datapath.delay_model dp) ~res:(Datapath.resource_model dp)
      in
      record (bench.Suite.bench_name ^ "/parallel") dp stg;
      let d =
        Driver.synthesize ~options:(options ()) prog ~workload
          ~objective:Solution.Minimize_area ~laxity:2.0 ()
      in
      record
        (bench.Suite.bench_name ^ "/area-opt")
        d.Driver.d_solution.Solution.dp d.Driver.d_solution.Solution.stg)
    Suite.all;
  ptable buf t;
  let est_arr = Array.of_list !est_series and meas_arr = Array.of_list !meas_series in
  pf buf
    "ratio mean %.2f (stddev %.2f), rank direction: pearson(est, meas) = %.3f\n\n"
    (Stats.mean ratios) (Stats.stddev ratios)
    (Stats.pearson est_arr meas_arr)

(* ------------------------------------------------------------------ *)
(* Ablations A1/A2/A4                                                   *)
(* ------------------------------------------------------------------ *)

let ablations buf =
  let benches = [ Suite.gcd; Suite.dealer; Suite.send ] in
  (* A1: apply the Huffman restructuring move to every network of the
     heavily-shared area-optimized design — the setting the move was made
     for — and measure the mux-power change at 5 V. *)
  let t1 =
    Table.create
      ~title:
        "Ablation A1: mux restructuring applied to the area-optimized design (5 V)"
      [
        ("benchmark", Table.Left);
        ("mux power before", Table.Right);
        ("mux power after", Table.Right);
        ("total before", Table.Right);
        ("total after", Table.Right);
      ]
  in
  List.iter
    (fun bench ->
      let prog = Suite.program bench in
      let workload = bench.Suite.workload ~seed:55 ~passes:(sweep_passes ()) in
      let d =
        Driver.synthesize ~options:(options ()) prog ~workload
          ~objective:Solution.Minimize_area ~laxity:2.5 ()
      in
      let d' = Driver.restructure_all d in
      let m = Driver.measure d prog ~workload ~vdd:Vdd.nominal () in
      let m' = Driver.measure d' prog ~workload ~vdd:Vdd.nominal () in
      Table.add_row t1
        [
          bench.Suite.bench_name;
          Printf.sprintf "%.4f" m.Measure.m_breakdown.Breakdown.p_mux;
          Printf.sprintf "%.4f" m'.Measure.m_breakdown.Breakdown.p_mux;
          Printf.sprintf "%.4f" m.Measure.m_power;
          Printf.sprintf "%.4f" m'.Measure.m_power;
        ])
    benches;
  ptable buf t1;
  (* A2: variable-depth sequences vs greedy single-move improvement. *)
  let t =
    Table.create ~title:"Ablation A2: search depth (power-optimized, laxity 2.0, measured)"
      [
        ("benchmark", Table.Left);
        ("depth 4", Table.Right);
        ("depth 1 (greedy)", Table.Right);
      ]
  in
  List.iter
    (fun bench ->
      let prog = Suite.program bench in
      let workload = bench.Suite.workload ~seed:55 ~passes:(sweep_passes ()) in
      let power opts =
        let d =
          Driver.synthesize ~options:opts prog ~workload
            ~objective:Solution.Minimize_power ~laxity:2.0 ()
        in
        (Driver.measure d prog ~workload ()).Measure.m_power
      in
      let base_opts = options () in
      let full = power { base_opts with Driver.depth = 4 } in
      let greedy = power { base_opts with Driver.depth = 1 } in
      Table.add_row t
        [
          bench.Suite.bench_name;
          Printf.sprintf "%.4f" full;
          Printf.sprintf "%.4f" greedy;
        ])
    benches;
  ptable buf t;
  (* A4: concurrent-loop product on/off (scheduler-level). *)
  let t4 =
    Table.create ~title:"Ablation A4: concurrent-loop product construction (analytic ENC)"
      [ ("benchmark", Table.Left); ("with product", Table.Right); ("without", Table.Right) ]
  in
  List.iter
    (fun bench ->
      let prog = Suite.program bench in
      let workload = bench.Suite.workload ~seed:56 ~passes:(sweep_passes ()) in
      let run = Sim.simulate prog ~workload in
      let enc_with parallel =
        let b = Binding.parallel prog.Graph.graph Module_library.default in
        let dp = Datapath.build b in
        let cfg =
          {
            (Scheduler.config_of_style Scheduler.Wavesched ~clock_ns:bench.Suite.clock_ns)
            with
            Scheduler.parallel_regions = parallel;
          }
        in
        let stg =
          Scheduler.schedule cfg prog ~delay:(Datapath.delay_model dp)
            ~res:(Datapath.resource_model dp)
        in
        Enc.analytic stg run.Sim.profile
      in
      Table.add_float_row t4 ~decimals:1 bench.Suite.bench_name
        [ enc_with true; enc_with false ])
    [ Suite.loops; Suite.cordic ];
  ptable buf t4;
  Buffer.add_char buf '\n'

(* ------------------------------------------------------------------ *)
(* Controller state-encoding study (extension)                          *)
(* ------------------------------------------------------------------ *)

let controller_encoding buf =
  let t =
    Table.create
      ~title:
        "Controller state encoding: expected code toggles/cycle and measured power"
      [
        ("benchmark", Table.Left);
        ("bits bin/gray/1hot", Table.Right);
        ("toggles bin", Table.Right);
        ("toggles gray", Table.Right);
        ("toggles 1hot", Table.Right);
        ("power bin", Table.Right);
        ("power gray", Table.Right);
      ]
  in
  List.iter
    (fun bench ->
      let prog = Suite.program bench in
      let workload = bench.Suite.workload ~seed:77 ~passes:(sweep_passes ()) in
      let run = Sim.simulate prog ~workload in
      let b = Binding.parallel prog.Graph.graph Module_library.default in
      let dp = Datapath.build b in
      let stg =
        Scheduler.schedule
          (Scheduler.config_of_style Scheduler.Wavesched ~clock_ns:bench.Suite.clock_ns)
          prog ~delay:(Datapath.delay_model dp) ~res:(Datapath.resource_model dp)
      in
      let ctrl enc = Impact_rtl.Controller.synthesize stg enc in
      let sw enc =
        Impact_rtl.Controller.expected_code_switching (ctrl enc) run.Sim.profile
      in
      let power enc =
        (Measure.measure prog stg dp ~workload ~encoding:enc ()).Measure.m_power
      in
      Table.add_row t
        [
          bench.Suite.bench_name;
          Printf.sprintf "%d/%d/%d"
            (Impact_rtl.Controller.state_bits (ctrl Impact_rtl.Controller.Binary))
            (Impact_rtl.Controller.state_bits (ctrl Impact_rtl.Controller.Gray))
            (Impact_rtl.Controller.state_bits (ctrl Impact_rtl.Controller.One_hot));
          Printf.sprintf "%.2f" (sw Impact_rtl.Controller.Binary);
          Printf.sprintf "%.2f" (sw Impact_rtl.Controller.Gray);
          Printf.sprintf "%.2f" (sw Impact_rtl.Controller.One_hot);
          Printf.sprintf "%.4f" (power Impact_rtl.Controller.Binary);
          Printf.sprintf "%.4f" (power Impact_rtl.Controller.Gray);
        ])
    Suite.all;
  ptable buf t;
  Buffer.add_char buf '\n'

(* ------------------------------------------------------------------ *)
(* Frontend optimizer effect (extension)                                *)
(* ------------------------------------------------------------------ *)

(* A deliberately naive FIR-style kernel: redundant subexpressions, constant
   arithmetic, a power-of-two multiply and dead temporaries — the shapes a
   non-expert writes and the optimizer exists for.  (The paper benchmarks
   are hand-minimal, so they show no change.) *)
let naive_source =
  {|
process naive(x : int16, y : int16) -> (acc : int16) {
  var total : int16 = 0;
  for (var i : int16 = 0; i < 8; i = i + 1) {
    var scale : int16 = 2 + 2;
    var a : int16 = (x + y) * scale;
    var b : int16 = (x + y) * scale;
    var unused : int16 = a * b;
    var gain : int16 = a + b + 0;
    if (1 < 2) { total = total + gain * 1; } else { total = 0; }
  }
  acc = total;
}
|}

let frontend_opt buf =
  let t =
    Table.create
      ~title:"Frontend optimizer: CDFG size and power-optimized design (laxity 2.0)"
      [
        ("design", Table.Left);
        ("nodes", Table.Right);
        ("nodes opt", Table.Right);
        ("power", Table.Right);
        ("power opt", Table.Right);
      ]
  in
  let entries =
    List.map (fun b -> (b.Suite.bench_name, b.Suite.source, b.Suite.workload)) Suite.all
    @ [
        ( "naive-fir",
          naive_source,
          fun ~seed ~passes ->
            let rng = Rng.create ~seed in
            List.init passes (fun _ ->
                [ ("x", Rng.int_in rng 0 50); ("y", Rng.int_in rng 0 50) ]) );
      ]
  in
  List.iter
    (fun (name, source, workload_gen) ->
      let workload = workload_gen ~seed:88 ~passes:(sweep_passes ()) in
      let power prog =
        let d =
          Driver.synthesize ~options:(options ()) prog ~workload
            ~objective:Solution.Minimize_power ~laxity:2.0 ()
        in
        (Driver.measure d prog ~workload ()).Measure.m_power
      in
      let plain = Elaborate.from_source source in
      let optimized = Elaborate.from_source ~optimize:true source in
      Table.add_row t
        [
          name;
          string_of_int (Graph.node_count plain.Graph.graph);
          string_of_int (Graph.node_count optimized.Graph.graph);
          Printf.sprintf "%.4f" (power plain);
          Printf.sprintf "%.4f" (power optimized);
        ])
    entries;
  ptable buf t;
  Buffer.add_char buf '\n'

(* ------------------------------------------------------------------ *)
(* Signal statistics of [19]                                            *)
(* ------------------------------------------------------------------ *)

let signal_stats buf =
  let bench = Suite.gcd in
  let prog = Suite.program bench in
  let workload = bench.Suite.workload ~seed:31 ~passes:(sweep_passes ()) in
  let run = Sim.simulate prog ~workload in
  let t =
    Table.create
      ~title:
        "Per-operation signal statistics (GCD): the inputs of the [19]-style estimator"
      [
        ("operation", Table.Left);
        ("accesses", Table.Right);
        ("mean sw", Table.Right);
        ("std sw", Table.Right);
        ("temporal corr", Table.Right);
      ]
  in
  Graph.iter_nodes prog.Graph.graph ~f:(fun n ->
      let r = Impact_power.Netstats.signal_report run n.Ir.n_id in
      if r.Impact_power.Netstats.sr_accesses > 0 then
        Table.add_row t
          [
            n.Ir.n_name;
            string_of_int r.Impact_power.Netstats.sr_accesses;
            Printf.sprintf "%.3f" r.Impact_power.Netstats.sr_mean_switching;
            Printf.sprintf "%.3f" r.Impact_power.Netstats.sr_std_switching;
            Printf.sprintf "%.3f" r.Impact_power.Netstats.sr_temporal_correlation;
          ]);
  ptable buf t;
  (* Spatial correlation between the two subtractions (mutually exclusive
     branches) and between a subtraction and its Sel consumer. *)
  let find name =
    Graph.fold_nodes prog.Graph.graph ~init:None ~f:(fun acc n ->
        if n.Ir.n_name = name then Some n.Ir.n_id else acc)
    |> Option.get
  in
  pf buf "spatial correlation: (-1,-2) = %.3f, (-1,Sel1) = %.3f\n\n"
    (Impact_power.Netstats.spatial_correlation run (find "-1") (find "-2"))
    (Impact_power.Netstats.spatial_correlation run (find "-1") (find "Sel1"))

(* ------------------------------------------------------------------ *)
(* Explicit loop unrolling (extension)                                  *)
(* ------------------------------------------------------------------ *)

let loop_unrolling buf =
  let t =
    Table.create
      ~title:
        "Explicit unrolling of fixed-trip loops (power-optimized, laxity 2.0)"
      [
        ("benchmark", Table.Left);
        ("nodes", Table.Right);
        ("nodes unrolled", Table.Right);
        ("enc", Table.Right);
        ("enc unrolled", Table.Right);
        ("power", Table.Right);
        ("power unrolled", Table.Right);
        ("E/pass", Table.Right);
        ("E/pass unrolled", Table.Right);
      ]
  in
  List.iter
    (fun bench ->
      let workload = bench.Suite.workload ~seed:66 ~passes:(sweep_passes ()) in
      let build source transform =
        let typed = Impact_lang.Typecheck.check (Impact_lang.Parser.parse source) in
        Impact_lang.Elaborate.program (transform typed)
      in
      let evaluate prog =
        let d =
          Driver.synthesize ~options:(options ()) prog ~workload
            ~objective:Solution.Minimize_power ~laxity:2.0 ()
        in
        let m = Driver.measure d prog ~workload () in
        (d.Driver.d_solution.Solution.enc, m.Measure.m_power)
      in
      let plain = build bench.Suite.source Fun.id in
      let unrolled =
        build bench.Suite.source (fun p ->
            Impact_lang.Optimize.optimize (Impact_lang.Unroll.unroll p))
      in
      let enc_p, pow_p = evaluate plain in
      let enc_u, pow_u = evaluate unrolled in
      Table.add_row t
        [
          bench.Suite.bench_name;
          string_of_int (Graph.node_count plain.Graph.graph);
          string_of_int (Graph.node_count unrolled.Graph.graph);
          Printf.sprintf "%.1f" enc_p;
          Printf.sprintf "%.1f" enc_u;
          Printf.sprintf "%.4f" pow_p;
          Printf.sprintf "%.4f" pow_u;
          Printf.sprintf "%.1f" (pow_p *. enc_p);
          Printf.sprintf "%.1f" (pow_u *. enc_u);
        ])
    [ Suite.cordic; Suite.loops ];
  ptable buf t;
  ps buf
    "(power is energy per clock at each design's own scaled supply; E/pass =\n\
     power x ENC is the energy to complete one activation — unrolling wins\n\
     big there by eliminating control and enabling whole-body chaining)\n\n"

(* ------------------------------------------------------------------ *)
(* Force-directed scheduling [23] (extension)                           *)
(* ------------------------------------------------------------------ *)

let force_directed buf =
  let t =
    Table.create
      ~title:
        "Force-directed scheduling vs ASAP: peak multiplier/adder concurrency"
      [
        ("benchmark", Table.Left);
        ("latency", Table.Right);
        ("asap mul/add", Table.Right);
        ("fds mul/add", Table.Right);
        ("fds+4 mul/add", Table.Right);
      ]
  in
  List.iter
    (fun bench ->
      let prog = Suite.program bench in
      let analysis = Impact_cdfg.Analysis.create prog.Graph.graph in
      let delay, _ =
        Impact_sched.Models.parallel_models prog.Graph.graph Module_library.default
      in
      let ops =
        Graph.fold_nodes prog.Graph.graph ~init:[] ~f:(fun acc n ->
            if Module_library.class_of_op n.Ir.kind <> None then n.Ir.n_id :: acc
            else acc)
        |> List.rev
      in
      let module Fd = Impact_sched.Force_directed in
      let peak r cls = Option.value (List.assoc_opt cls r.Fd.peak_usage) ~default:0 in
      let show r =
        Printf.sprintf "%d/%d"
          (peak r Module_library.Class_mul)
          (peak r Module_library.Class_add_sub)
      in
      let asap = Fd.asap analysis ~delay ~clock_ns:bench.Suite.clock_ns ops in
      let fds =
        Fd.schedule analysis ~delay ~clock_ns:bench.Suite.clock_ns
          ~latency:asap.Fd.latency ops
      in
      let relaxed =
        Fd.schedule analysis ~delay ~clock_ns:bench.Suite.clock_ns
          ~latency:(asap.Fd.latency + 4) ops
      in
      Table.add_row t
        [
          bench.Suite.bench_name;
          string_of_int asap.Fd.latency;
          show asap;
          show fds;
          show relaxed;
        ])
    [ Suite.paulin; Suite.cordic ];
  ptable buf t;
  ps buf
    "(the classic [23] result: at the same or slightly relaxed latency the\n\
     balancer lowers peak same-class concurrency, i.e. the number of\n\
     functional units the design needs; the peaks here are per dataflow\n\
     leaf with loop structure ignored)\n\n"

(* ------------------------------------------------------------------ *)
(* Gate-level glitch study (grounds the RT glitch factor)               *)
(* ------------------------------------------------------------------ *)

let gate_glitch buf =
  let module Netlist = Impact_gate.Netlist in
  let module Expand = Impact_gate.Expand in
  let module Gsim = Impact_gate.Gsim in
  let width = 16 in
  let stages = 4 in
  let nl = Netlist.create () in
  (* A wired combinational chain: out_k = out_{k-1} + fresh operand, so the
     upstream adder's transients ripple into the downstream one. *)
  let a0 = Netlist.fresh_bus nl ~width in
  let operands = Array.init stages (fun _ -> Netlist.fresh_bus nl ~width) in
  let cin = Netlist.fresh_net nl in
  let stage_sums = Array.make stages [||] in
  let current = ref a0 in
  for k = 0 to stages - 1 do
    let sum, _ = Expand.ripple_adder_on nl ~a:!current ~b:operands.(k) ~cin in
    stage_sums.(k) <- sum;
    current := sum
  done;
  let sim = Gsim.create nl in
  let rng = Rng.create ~seed:9 in
  let bus_changes bus v =
    Array.to_list (Array.mapi (fun i net -> (net, (v lsr i) land 1 = 1)) bus)
  in
  let passes = if !quick then 300 else 1500 in
  let count_stage k =
    Array.fold_left (fun acc net -> acc + Gsim.toggles sim net) 0 stage_sums.(k)
  in
  Gsim.apply sim [ (cin, false) ];
  Gsim.reset_counters sim;
  for _ = 1 to passes do
    let changes =
      bus_changes a0 (Rng.int rng 65536)
      @ List.concat
          (List.init stages (fun k -> bus_changes operands.(k) (Rng.int rng 65536)))
    in
    Gsim.apply sim changes
  done;
  let t =
    Table.create
      ~title:
        "Gate-level wired adder chain: sum-bus toggles per pass by chain stage"
      [ ("stage", Table.Right); ("toggles/pass", Table.Right); ("vs stage 0", Table.Right) ]
  in
  let base = float_of_int (count_stage 0) /. float_of_int passes in
  for k = 0 to stages - 1 do
    let per = float_of_int (count_stage k) /. float_of_int passes in
    Table.add_row t
      [ string_of_int k; Printf.sprintf "%.2f" per; Printf.sprintf "%.2fx" (per /. base) ]
  done;
  ptable buf t;
  pf buf
    "(the RT power model charges chained units a glitch factor of 1 + 0.15/stage;\n\
     here the upstream transients really propagate, so the growth is the\n\
     empirical glitch amplification — netlist: %d gates, %d nets)\n\n"
    (Netlist.gate_count nl) (Netlist.net_count nl)

(* ------------------------------------------------------------------ *)

let sections : (string * (Buffer.t -> unit)) list =
  List.map (fun b -> ("fig13-" ^ b.Suite.bench_name, fig13_section b)) Suite.all
  @ [
      ("mux-example", mux_example);
      ("trace-manip", trace_manip);
      ("enc-compare", enc_compare);
      ("power-breakdown", power_breakdown);
      ("summary", summary);
      ("estimator-fidelity", estimator_fidelity);
      ("ablations", ablations);
      ("controller-encoding", controller_encoding);
      ("frontend-opt", frontend_opt);
      ("loop-unrolling", loop_unrolling);
      ("signal-stats", signal_stats);
      ("force-directed", force_directed);
      ("gate-glitch", gate_glitch);
    ]

(* The benchmarks whose Figure-13 sweep a selection will need — prefetched
   through the pool before the sections run, so concurrent sections never
   race to compute the same sweep. *)
let sweeps_needed selected =
  let of_section (name, _) =
    if name = "summary" then Suite.all
    else
      List.filter (fun b -> name = "fig13-" ^ b.Suite.bench_name) Suite.all
  in
  List.concat_map of_section selected
  |> List.fold_left
       (fun acc b ->
         if List.exists (fun b' -> b'.Suite.bench_name = b.Suite.bench_name) acc then
           acc
         else b :: acc)
       []
  |> List.rev

let run_section (name, f) =
  let buf = Buffer.create 4096 in
  Printf.bprintf buf "### %s\n" name;
  let t0 = Unix.gettimeofday () in
  f buf;
  let dt = Unix.gettimeofday () -. t0 in
  Printf.bprintf buf "### %s done in %.1fs\n\n" name dt;
  Buffer.contents buf

let emit text =
  print_string text;
  flush stdout

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | [] -> List.rev acc
    | "--quick" :: rest ->
      quick := true;
      parse acc rest
    | ("--jobs" | "-j") :: n :: rest -> (
      match int_of_string_opt n with
      | Some n when n >= 0 ->
        bench_jobs := n;
        parse acc rest
      | _ ->
        prerr_endline "--jobs requires a non-negative integer (0 = auto)";
        exit 1)
    | [ ("--jobs" | "-j") ] ->
      prerr_endline "--jobs requires a non-negative integer (0 = auto)";
      exit 1
    | a :: rest -> parse (a :: acc) rest
  in
  let args = parse [] args in
  let selected =
    if args = [] then sections
    else
      List.filter_map
        (fun name ->
          match List.assoc_opt name sections with
          | Some f -> Some (name, f)
          | None ->
            Printf.eprintf "unknown section %s (available: %s)\n" name
              (String.concat " " (List.map fst sections));
            exit 1)
        args
  in
  Parallel.with_jobs !bench_jobs (function
    | None -> List.iter (fun s -> emit (run_section s)) selected
    | Some pool ->
      Printf.eprintf "bench: fanning sections and sweep points over %d jobs\n%!"
        (Parallel.jobs pool);
      bench_pool := Some pool;
      Fun.protect
        ~finally:(fun () -> bench_pool := None)
        (fun () ->
          ignore (Parallel.map pool (fun b -> ignore (sweep_of b)) (sweeps_needed selected));
          (* Buffers are printed in selection order, so stdout is
             byte-identical to the jobs=1 run (modulo the timing numbers
             inside). *)
          List.iter emit (Parallel.map pool run_section selected)))
