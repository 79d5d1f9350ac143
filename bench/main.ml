(* The experiment harness: one section per paper table/figure (see
   DESIGN.md's per-experiment index), plus ablations and Bechamel timings
   of the key kernels.

   Usage:
     dune exec bench/main.exe                 -- run everything
     dune exec bench/main.exe -- --quick      -- smaller sweeps
     dune exec bench/main.exe -- --jobs 4     -- sections + sweeps on 4 domains
     dune exec bench/main.exe -- --min-par-speedup 1.0  -- override the
                                                 eval-engine speedup floor
     dune exec bench/main.exe -- --min-warm-speedup 5.0 -- override the
                                                 store warm-hit speedup floor
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
module Fragcache = Impact_sched.Fragcache
module Stg = Impact_sched.Stg
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
module Moves = Impact_core.Moves
module Search = Impact_core.Search
module Parallel = Impact_util.Parallel
module Store = Impact_store.Store

let quick = ref false

(* Section-level concurrency: [--jobs N] (0 = auto-detect, which honours
   IMPACT_JOBS).  The pool, when present, is shared by the section fan-out
   and by the Figure-13 sweeps inside the sections (nested
   [Parallel.map] calls are safe: a caller drains its own batch). *)
let bench_jobs = ref 1
let bench_pool : Parallel.pool option ref = ref None

(* Buffered printing: sections write here, never to stdout directly. *)
let pf = Printf.bprintf
let ps = Buffer.add_string
let ptable buf t = Buffer.add_string buf (Table.render t)

(* --json FILE support: machine-readable timings and counters, hand-rolled
   (no JSON dependency).  Sections push pre-rendered JSON objects; the main
   loop records per-section wall times. *)
let json_out : string option ref = ref None
let json_eval_engine : (string * string) list ref = ref []
let json_store : (string * string) list ref = ref []
let json_sched : (string * string) list ref = ref []
let json_section_times : (string * float) list ref = ref []

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) fields)
  ^ "}"

let json_num f =
  if Float.is_finite f then Printf.sprintf "%.6g" f else Printf.sprintf "%S" "inf"

(* The artifact is written to a temp file and atomically renamed into
   place, so an interrupted run can never leave a truncated BENCH_*.json
   behind for CI (or a human) to misread. *)
let write_json file ~jobs =
  let tmp = Printf.sprintf "%s.tmp.%d" file (Unix.getpid ()) in
  let oc = open_out tmp in
  let assoc_block indent entries =
    String.concat ",\n"
      (List.map (fun (k, v) -> Printf.sprintf "%s%S: %s" indent k v) (List.rev entries))
  in
  (* [jobs_detected] is what the machine offers; [jobs_effective] is the
     section/sweep concurrency this run actually used (the resolved
     [--jobs], where 0 deferred to IMPACT_JOBS/detection). *)
  Printf.fprintf oc
    "{\n  \"quick\": %b,\n  \"jobs_detected\": %d,\n  \"jobs_effective\": %d,\n" !quick
    (Parallel.detected_domains ()) jobs;
  Printf.fprintf oc "  \"section_seconds\": {\n%s\n  },\n"
    (assoc_block "    "
       (List.map (fun (k, v) -> (k, json_num v)) !json_section_times));
  Printf.fprintf oc "  \"store\": {\n%s\n  },\n" (assoc_block "    " !json_store);
  Printf.fprintf oc "  \"sched\": {\n%s\n  },\n" (assoc_block "    " !json_sched);
  Printf.fprintf oc "  \"eval_engine\": {\n%s\n  }\n}\n"
    (assoc_block "    " !json_eval_engine);
  close_out oc;
  Sys.rename tmp file

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
  (* Trace manipulation: merge the recorded traces (a resource-sharing move
     mapping +1,+2,+3 onto one adder). *)
  let t2 = Unix.gettimeofday () in
  let merged = Traces.unit_trace run adds in
  let t3 = Unix.gettimeofday () in
  (* Re-simulation: run the behavioral simulation again and merge. *)
  let run2 = Sim.simulate prog ~workload in
  let merged2 = Traces.unit_trace run2 adds in
  let t4 = Unix.gettimeofday () in
  let equal =
    Array.length merged = Array.length merged2
    && Array.for_all2
         (fun e1 e2 ->
           e1.Traces.tr_node = e2.Traces.tr_node
           && Impact_util.Bitvec.equal e1.Traces.tr_output e2.Traces.tr_output)
         merged merged2
  in
  let manip = t3 -. t2 and resim = t4 -. t3 in
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
(* Persistent store: warm vs cold full sweeps                           *)
(* ------------------------------------------------------------------ *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter
      (fun name -> rm_rf (Filename.concat path name))
      (try Sys.readdir path with Sys_error _ -> [||]);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())

(* --min-warm-speedup: fail the bench when the warm (store-hit) run of the
   full Figure-13 suite is not at least this factor faster than the cold
   run that populated the store.  Warm answers skip search and measurement
   entirely, so the honest floor is high; CI may lower it for noisy
   runners. *)
let min_warm_speedup = ref 5.0

let design_equal a b =
  a.Driver.d_solution.Solution.cost = b.Driver.d_solution.Solution.cost
  && a.Driver.d_solution.Solution.area = b.Driver.d_solution.Solution.area
  && List.map Moves.describe a.Driver.d_search.Search.moves_applied
     = List.map Moves.describe b.Driver.d_search.Search.moves_applied

let sweep_equal a b =
  List.length a.Driver.sw_points = List.length b.Driver.sw_points
  && a.Driver.sw_base_power = b.Driver.sw_base_power
  && a.Driver.sw_base_area = b.Driver.sw_base_area
  && List.for_all2
       (fun p q ->
         p.Driver.sp_a_power = q.Driver.sp_a_power
         && p.Driver.sp_i_power = q.Driver.sp_i_power
         && p.Driver.sp_i_area = q.Driver.sp_i_area
         && p.Driver.sp_a_vdd = q.Driver.sp_a_vdd
         && p.Driver.sp_i_vdd = q.Driver.sp_i_vdd
         && design_equal p.Driver.sp_area_design q.Driver.sp_area_design
         && design_equal p.Driver.sp_power_design q.Driver.sp_power_design)
       a.Driver.sw_points b.Driver.sw_points

let sweep_counters sw =
  List.fold_left
    (fun acc p ->
      let add (ev, hits, pruned, delta, bpar, binl) d =
        ( ev + d.Driver.d_search.Search.candidates_evaluated,
          hits + d.Driver.d_search.Search.cache_hits,
          pruned + d.Driver.d_search.Search.pruned_infeasible,
          delta + d.Driver.d_search.Search.delta_repriced,
          bpar + d.Driver.d_search.Search.batches_parallel,
          binl + d.Driver.d_search.Search.batches_inline )
      in
      add (add acc p.Driver.sp_area_design) p.Driver.sp_power_design)
    (0, 0, 0, 0, 0, 0) sw.Driver.sw_points

(* Speculative-engine counters: probes launched/won and steals summed over
   the sweep's designs, busy fraction averaged (it is already a ratio). *)
let sweep_probe_counters sw =
  let pl, pw, st, busy, n =
    List.fold_left
      (fun acc p ->
        let add (pl, pw, st, busy, n) d =
          let s = d.Driver.d_search in
          ( pl + s.Search.probes_launched,
            pw + s.Search.probes_won,
            st + s.Search.steals,
            busy +. s.Search.domain_busy_fraction,
            n + 1 )
        in
        add (add acc p.Driver.sp_area_design) p.Driver.sp_power_design)
      (0, 0, 0, 0., 0) sw.Driver.sw_points
  in
  (pl, pw, st, (if n = 0 then 1. else busy /. float_of_int n))

(* --min-par-speedup: fail the bench when any benchmark's jobs-4 speculative
   sweep is slower than this factor over the jobs-1 run of the same engine.
   Default policy: 1.5x on hardware with >= 4 cores (the paper target for
   this configuration), 1.0x (no-regression) on 2-3 cores.  On a single
   core the gate is recorded as skipped — 4 domains time-slicing one core
   cannot speed anything up, and pretending otherwise would just make the
   artifact unreproducible.  Gate failures are collected here and turn into
   a non-zero exit at the end of the run. *)
let min_par_speedup : float option ref = ref None
let gate_failures : string list ref = ref []

let speedup_floor () =
  let cores = Parallel.detected_domains () in
  if cores < 2 then None
  else
    match !min_par_speedup with
    | Some x -> Some x
    | None -> if cores >= 4 then Some 1.5 else Some 1.0

(* Warm vs cold: run the full Figure-13 suite cold against an empty store,
   then again warm against the populated one, assert bit-identity, and gate
   the aggregate speedup.  Store directories live under the system temp dir
   and are removed afterwards. *)
let store_warm_cold buf =
  let benches = if !quick then [ Suite.gcd; Suite.dealer ] else Suite.all in
  let root =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "impact-bench-store.%d" (Unix.getpid ()))
  in
  rm_rf root;
  let t =
    Table.create
      ~title:
        "Persistent store: full Figure-13 sweep, cold (populating) vs warm \
         (store hit)"
      [
        ("benchmark", Table.Left);
        ("cold s", Table.Right);
        ("warm s", Table.Right);
        ("speedup", Table.Right);
        ("bytes", Table.Right);
        ("identical", Table.Right);
      ]
  in
  let total_cold = ref 0. and total_warm = ref 0. and total_bytes = ref 0 in
  Fun.protect
    ~finally:(fun () -> rm_rf root)
    (fun () ->
      List.iter
        (fun bench ->
          let prog = Suite.program bench in
          let workload = bench.Suite.workload ~seed:2026 ~passes:(sweep_passes ()) in
          let store =
            Store.open_store ~dir:(Filename.concat root bench.Suite.bench_name) ()
          in
          let timed () =
            let t0 = Unix.gettimeofday () in
            let sw =
              Driver.figure13 ~options:(options ()) ?pool:!bench_pool ~store prog
                ~workload ~laxities:(laxities ())
            in
            (Unix.gettimeofday () -. t0, sw)
          in
          let t_cold, sw_cold = timed () in
          let t_warm, sw_warm = timed () in
          (* The store's core contract: a warm answer is bit-identical to
             the cold one — same designs, same stats, same sweep points. *)
          let identical = sweep_equal sw_warm sw_cold in
          assert identical;
          let s = Store.stats store in
          assert (s.Store.st_hits >= 1 && s.Store.st_writes >= 1);
          total_cold := !total_cold +. t_cold;
          total_warm := !total_warm +. t_warm;
          total_bytes := !total_bytes + s.Store.st_bytes;
          let speedup = t_cold /. Float.max 1e-9 t_warm in
          Table.add_row t
            [
              bench.Suite.bench_name;
              Printf.sprintf "%.2f" t_cold;
              Printf.sprintf "%.3f" t_warm;
              Printf.sprintf "%.0fx" speedup;
              string_of_int s.Store.st_bytes;
              string_of_bool identical;
            ];
          json_store :=
            ( bench.Suite.bench_name,
              json_obj
                [
                  ("cold_s", json_num t_cold);
                  ("warm_s", json_num t_warm);
                  ("speedup", json_num speedup);
                  ("store_bytes", string_of_int s.Store.st_bytes);
                  ("store_hits", string_of_int s.Store.st_hits);
                  ("store_misses", string_of_int s.Store.st_misses);
                  ("store_writes", string_of_int s.Store.st_writes);
                  ("identical", string_of_bool identical);
                ] )
            :: !json_store)
        benches);
  let aggregate = !total_cold /. Float.max 1e-9 !total_warm in
  if aggregate < !min_warm_speedup then
    gate_failures :=
      Printf.sprintf
        "store-warm-cold: aggregate warm speedup %.1fx is below the %.1fx floor"
        aggregate !min_warm_speedup
      :: !gate_failures;
  json_store :=
    ( "aggregate",
      json_obj
        [
          ("cold_s", json_num !total_cold);
          ("warm_s", json_num !total_warm);
          ("speedup", json_num aggregate);
          ("store_bytes", string_of_int !total_bytes);
          ("min_warm_speedup", json_num !min_warm_speedup);
          ("gate_pass", string_of_bool (aggregate >= !min_warm_speedup));
        ] )
    :: !json_store;
  ptable buf t;
  pf buf
    "aggregate: cold %.2fs, warm %.3fs, speedup %.0fx (floor %.1fx)\n\
     (warm runs answer every synthesis and measurement from the \
     content-addressed store\n\
     after integrity cross-checks; bit-identity is asserted per benchmark)\n\n"
    !total_cold !total_warm aggregate !min_warm_speedup

(* --min-warmmiss-speedup: fail the bench when the warm-miss run — same
   program and workload, shifted laxity, so the design tier misses but the
   simulation and traces tiers hit — is not at least this factor faster
   than the equivalent storeless cold run.  This is the tiered store's
   raison d'être: a new design question should never pay for the front end
   again.  Serial timing comparison, no core-count dependence, so the gate
   is always enforced. *)
let min_warmmiss_speedup = ref 2.0

(* Front-end-dominated configuration: a heavy workload (simulation and
   switching-statistics time scale with passes) against a deliberately
   small search, so the reusable tiers carry most of the cold cost. *)
let warmmiss_options () =
  {
    (options ()) with
    Driver.depth = 1;
    max_candidates = 3;
    max_iterations = 1;
    probes = 1;
  }

let warmmiss_passes () = if !quick then 600 else 1200

let store_warm_miss buf =
  let benches = if !quick then [ Suite.gcd; Suite.dealer ] else Suite.all in
  let root =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "impact-bench-warmmiss.%d" (Unix.getpid ()))
  in
  rm_rf root;
  let opts = warmmiss_options () in
  let t =
    Table.create
      ~title:
        "Tiered store, warm miss: shifted laxity re-searches the design but \
         reuses the simulation and traces tiers"
      [
        ("benchmark", Table.Left);
        ("cold s", Table.Right);
        ("warmmiss s", Table.Right);
        ("speedup", Table.Right);
        ("sim hit", Table.Right);
        ("traces hit", Table.Right);
        ("identical", Table.Right);
      ]
  in
  let total_cold = ref 0. and total_warm = ref 0. in
  Fun.protect
    ~finally:(fun () -> rm_rf root)
    (fun () ->
      List.iter
        (fun bench ->
          let prog = Suite.program bench in
          let workload = bench.Suite.workload ~seed:2026 ~passes:(warmmiss_passes ()) in
          let store =
            Store.open_store ~dir:(Filename.concat root bench.Suite.bench_name) ()
          in
          let synth ?store laxity =
            Driver.synthesize ~options:opts ?store prog ~workload
              ~objective:Solution.Minimize_power ~laxity ()
          in
          (* Populate every tier at one laxity (untimed) ... *)
          ignore (synth ~store 2.0);
          (* ... then time the same question at a shifted laxity, warm-miss
             (design tier misses, front-end tiers hit) vs storeless cold.  The
             warm miss runs on a reopened handle, as a new process would, so
             the front-end tiers are read from disk rather than taken from
             the first handle's workload environment. *)
          let store =
            Store.open_store ~dir:(Filename.concat root bench.Suite.bench_name) ()
          in
          let t0 = Unix.gettimeofday () in
          let d_warm = synth ~store 3.0 in
          let t_warm = Unix.gettimeofday () -. t0 in
          let t0 = Unix.gettimeofday () in
          let d_cold = synth 3.0 in
          let t_cold = Unix.gettimeofday () -. t0 in
          let st = Store.stats store in
          let tier name st =
            match List.assoc_opt name st.Store.st_tiers with
            | Some t -> t
            | None -> failwith ("warm-miss: no " ^ name ^ " tier")
          in
          let sim_hit = (tier "sim" st).Store.ts_hits > 0 in
          let traces_hit = (tier "traces" st).Store.ts_hits > 0 in
          (* The design tier genuinely missed (a new search, one write),
             the simulation tier was reused, and the warm-miss answer is
             bit-identical to the storeless cold one. *)
          assert ((tier "design" st).Store.ts_writes = 1);
          assert ((tier "sim" st).Store.ts_writes = 0);
          assert (sim_hit && traces_hit);
          let identical =
            design_equal d_warm d_cold
            && d_warm.Driver.d_solution.Solution.enc = d_cold.Driver.d_solution.Solution.enc
            && d_warm.Driver.d_solution.Solution.vdd = d_cold.Driver.d_solution.Solution.vdd
          in
          assert identical;
          total_cold := !total_cold +. t_cold;
          total_warm := !total_warm +. t_warm;
          let speedup = t_cold /. Float.max 1e-9 t_warm in
          Table.add_row t
            [
              bench.Suite.bench_name;
              Printf.sprintf "%.2f" t_cold;
              Printf.sprintf "%.3f" t_warm;
              Printf.sprintf "%.1fx" speedup;
              string_of_bool sim_hit;
              string_of_bool traces_hit;
              string_of_bool identical;
            ];
          json_store :=
            ( "warmmiss_" ^ bench.Suite.bench_name,
              json_obj
                [
                  ("cold_s", json_num t_cold);
                  ("warmmiss_s", json_num t_warm);
                  ("speedup", json_num speedup);
                  ("sim_hit", string_of_bool sim_hit);
                  ("traces_hit", string_of_bool traces_hit);
                  ("identical", string_of_bool identical);
                ] )
            :: !json_store)
        benches);
  let aggregate = !total_cold /. Float.max 1e-9 !total_warm in
  if aggregate < !min_warmmiss_speedup then
    gate_failures :=
      Printf.sprintf
        "store-warm-miss: aggregate warm-miss speedup %.2fx is below the %.2fx floor"
        aggregate !min_warmmiss_speedup
      :: !gate_failures;
  json_store :=
    ( "warmmiss_aggregate",
      json_obj
        [
          ("cold_s", json_num !total_cold);
          ("warmmiss_s", json_num !total_warm);
          ("speedup", json_num aggregate);
          ("min_warmmiss_speedup", json_num !min_warmmiss_speedup);
          ("gate_pass", string_of_bool (aggregate >= !min_warmmiss_speedup));
        ] )
    :: !json_store;
  ptable buf t;
  pf buf
    "aggregate: cold %.2fs, warm-miss %.3fs, speedup %.2fx (floor %.2fx)\n\
     (the design tier misses — a genuinely new search runs — while the \
     simulation run\n\
     and the switching-statistics memos are served from the store;\n\
     bit-identity against the storeless cold run is asserted per benchmark)\n\n"
    !total_cold !total_warm aggregate !min_warmmiss_speedup

(* --min-resched-speedup: fail the bench when Heavy-move rescheduling with
   the region-fragment cache is not at least this factor faster than full
   rescheduling.  Serial timing comparison on one domain, no core-count
   dependence, so the gate is always enforced. *)
let min_resched_speedup = ref 1.5

(* Run [f] with the IMPACT_SCHED_CHECK cold-recompute gate forced off: the
   gate recomputes every spliced schedule from scratch, which is exactly
   the cost this section exists to measure the absence of.  Identity is
   asserted separately (and the validation pass below honours the ambient
   variable, so a CI run with the gate on still exercises it). *)
let without_sched_check f =
  let saved = Sys.getenv_opt "IMPACT_SCHED_CHECK" in
  Unix.putenv "IMPACT_SCHED_CHECK" "0";
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "IMPACT_SCHED_CHECK" (Option.value saved ~default:""))
    f

let sched_incremental buf =
  let benches = if !quick then [ Suite.gcd; Suite.dealer ] else Suite.all in
  let reps = if !quick then 5 else 7 in
  let t =
    Table.create
      ~title:
        "Incremental rescheduling: Heavy moves, full reschedule vs \
         fragment-spliced (1 domain)"
      [
        ("benchmark", Table.Left);
        ("heavy", Table.Right);
        ("full s", Table.Right);
        ("incr s", Table.Right);
        ("speedup", Table.Right);
        ("reused", Table.Right);
        ("sched", Table.Right);
        ("identical", Table.Right);
      ]
  in
  let total_full = ref 0. and total_incr = ref 0. in
  List.iter
    (fun bench ->
      let prog = Suite.program bench in
      let workload = bench.Suite.workload ~seed:2026 ~passes:(sweep_passes ()) in
      let run = Sim.simulate prog ~workload in
      let cfg_sched =
        Scheduler.config_of_style Scheduler.Wavesched ~clock_ns:bench.Suite.clock_ns
      in
      let b = Binding.parallel prog.Graph.graph Module_library.default in
      let dp = Datapath.build b in
      let stg0 =
        Scheduler.schedule cfg_sched prog ~delay:(Datapath.delay_model dp)
          ~res:(Datapath.resource_model dp)
      in
      let enc_min = Enc.analytic stg0 run.Sim.profile in
      let area_ref = Binding.fu_area b +. Binding.reg_area b +. Datapath.mux_area dp in
      let env =
        {
          Solution.program = prog;
          library = Module_library.default;
          sched_config = cfg_sched;
          est_ctx = Estimate.create_ctx run;
          enc_budget = 2.5 *. enc_min;
          objective = Solution.Minimize_power;
          area_ref;
        }
      in
      let initial = Solution.initial env in
      let rng = Rng.create ~seed:7 in
      let heavy =
        Moves.candidates env initial ~rng ~max:1000
        |> List.filter (fun m -> Moves.eval_class env initial m = Moves.Heavy)
      in
      let frags = Fragcache.create ~context:bench.Suite.bench_name () in
      let fingerprint sol =
        Printf.sprintf "%h|%h|%h|%h|%s" sol.Solution.cost sol.Solution.area
          sol.Solution.enc sol.Solution.vdd
          (Stg.signature sol.Solution.stg)
      in
      let apply_all cache =
        List.map (fun m -> Moves.apply ~cache env initial m) heavy
      in
      (* Validation pass — also warms [frags] for the timed runs below.  The
         full trajectory (every Heavy move applied end to end: binding,
         reschedule, ENC, power, cost) must be bit-identical with and
         without the fragment cache.  It honours the ambient
         IMPACT_SCHED_CHECK, so a CI run with the gate on recomputes every
         spliced schedule cold, asserts signature identity and
         splice-validates every served fragment here. *)
      let sols_full = apply_all (Solution.create_cache ()) in
      let sols_incr = apply_all (Solution.create_cache ~frags ()) in
      let fps = List.map (Option.map fingerprint) in
      let identical =
        fps sols_full = fps sols_incr && List.exists Option.is_some sols_full
      in
      assert identical;
      (* Timed passes measure the rescheduling step itself — the thing this
         cache accelerates: each Heavy successor's perturbed delay/resource
         models are rescheduled from scratch (full) vs spliced from the
         warmed fragment cache (incremental).  The rest of a move
         evaluation (power estimation, pricing) is identical between the
         two configurations and already served by its own caches, so
         folding it in would only dilute the measurement. *)
      let models =
        List.filter_map
          (Option.map (fun s ->
               ( Datapath.delay_model s.Solution.dp,
                 Datapath.resource_model s.Solution.dp )))
          sols_incr
      in
      (* Repetitions interleave the two configurations so a load spike on
         the host hits both sides of the ratio alike. *)
      let reused0, scheduled0 = Fragcache.counters frags in
      let t_full = ref 0. and t_incr = ref 0. in
      without_sched_check (fun () ->
          for _ = 1 to reps do
            let t0 = Unix.gettimeofday () in
            List.iter
              (fun (delay, res) ->
                ignore (Scheduler.schedule cfg_sched prog ~delay ~res))
              models;
            let t1 = Unix.gettimeofday () in
            List.iter
              (fun (delay, res) ->
                ignore (Scheduler.schedule ~frags cfg_sched prog ~delay ~res))
              models;
            t_full := !t_full +. (t1 -. t0);
            t_incr := !t_incr +. (Unix.gettimeofday () -. t1)
          done);
      let t_full = !t_full and t_incr = !t_incr in
      let reused1, scheduled1 = Fragcache.counters frags in
      let reused = reused1 - reused0 and scheduled = scheduled1 - scheduled0 in
      total_full := !total_full +. t_full;
      total_incr := !total_incr +. t_incr;
      let speedup = t_full /. Float.max 1e-9 t_incr in
      Table.add_row t
        [
          bench.Suite.bench_name;
          string_of_int (List.length heavy);
          Printf.sprintf "%.2f" t_full;
          Printf.sprintf "%.2f" t_incr;
          Printf.sprintf "%.2fx" speedup;
          string_of_int reused;
          string_of_int scheduled;
          string_of_bool identical;
        ];
      json_sched :=
        ( bench.Suite.bench_name,
          json_obj
            [
              ("heavy_moves", string_of_int (List.length heavy));
              ("repetitions", string_of_int reps);
              ("full_s", json_num t_full);
              ("incremental_s", json_num t_incr);
              ("speedup", json_num speedup);
              ("frags_reused", string_of_int reused);
              ("frags_scheduled", string_of_int scheduled);
              ("identical", string_of_bool identical);
            ] )
        :: !json_sched)
    benches;
  let aggregate = !total_full /. Float.max 1e-9 !total_incr in
  if aggregate < !min_resched_speedup then
    gate_failures :=
      Printf.sprintf
        "sched-incremental: aggregate resched speedup %.2fx is below the %.2fx \
         floor"
        aggregate !min_resched_speedup
      :: !gate_failures;
  json_sched :=
    ( "aggregate",
      json_obj
        [
          ("full_s", json_num !total_full);
          ("incremental_s", json_num !total_incr);
          ("speedup", json_num aggregate);
          ("min_resched_speedup", json_num !min_resched_speedup);
          ("gate_pass", string_of_bool (aggregate >= !min_resched_speedup));
        ] )
    :: !json_sched;
  ptable buf t;
  pf buf
    "aggregate: full %.2fs, incremental %.2fs, speedup %.2fx (floor %.2fx)\n\
     (each Heavy move's perturbed datapath is rescheduled from scratch vs \
     spliced from\n\
     the memoised region fragments; the whole move trajectory — cost, area, \
     ENC, Vdd,\n\
     STG signature — is asserted bit-identical between the two \
     configurations first)\n\n"
    !total_full !total_incr aggregate !min_resched_speedup

let eval_engine buf =
  let benches = if !quick then [ Suite.gcd; Suite.dealer ] else Suite.all in
  let par_jobs = 4 in
  let floor = speedup_floor () in
  let t =
    Table.create
      ~title:
        "Evaluation engine: full Figure-13 sweep — flat vs speculative, 1 vs 4 \
         domains"
      [
        ("benchmark", Table.Left);
        ("flat1 s", Table.Right);
        ("ws4 s", Table.Right);
        ("spec1 s", Table.Right);
        ("spec4 s", Table.Right);
        ("x ws", Table.Right);
        ("x par", Table.Right);
        ("busy", Table.Right);
        ("identical", Table.Right);
      ]
  in
  List.iter
    (fun bench ->
      let prog = Suite.program bench in
      let workload = bench.Suite.workload ~seed:2026 ~passes:(sweep_passes ()) in
      let timed opts =
        let t0 = Unix.gettimeofday () in
        let sw = Driver.figure13 ~options:opts prog ~workload ~laxities:(laxities ()) in
        (Unix.gettimeofday () -. t0, sw)
      in
      let base = { (options ()) with Driver.delta_reprice = true } in
      (* flat1: the PR-3-era engine (single trajectory, cache + delta) on
         one domain — the continuity baseline against earlier BENCH
         artifacts.  ws4: the same flat engine on 4 domains, candidate
         batches behind the measured-cost work-stealing gate.  spec1: the
         speculative multi-pivot engine on one domain — the defined
         sequential reference.  spec4: the full engine on 4 domains
         (probes fan out, sweep points fan out coarsely). *)
      let t_flat, sw_flat =
        timed { base with Driver.jobs = 1; probes = 1; sweep_parallel = false }
      in
      let t_ws, sw_ws =
        timed { base with Driver.jobs = par_jobs; probes = 1; sweep_parallel = false }
      in
      let t_spec1, sw_spec1 =
        timed
          {
            base with
            Driver.jobs = 1;
            probes = Search.default_num_probes;
            sweep_parallel = false;
          }
      in
      let t_spec4, sw_spec4 =
        timed
          {
            base with
            Driver.jobs = par_jobs;
            probes = Search.default_num_probes;
            sweep_parallel = true;
          }
      in
      let ev, hits, pruned, repriced, _, _ = sweep_counters sw_spec1 in
      let _, _, _, _, bpar, binl = sweep_counters sw_ws in
      let _, _, ws_steals, _ = sweep_probe_counters sw_ws in
      let probes_launched, probes_won, spec_steals, busy =
        sweep_probe_counters sw_spec4
      in
      (* The deterministic-merge identity asserts: placement (work-stealing
         batches, probe fan-out, coarse sweep fan-out) must change nothing —
         same winners, same stats, same Figure-13 numbers. *)
      let ws_identical = sweep_equal sw_ws sw_flat in
      let spec_identical = sweep_equal sw_spec4 sw_spec1 in
      assert ws_identical;
      assert spec_identical;
      let speedup_ws = t_flat /. Float.max 1e-9 t_ws in
      let speedup_par = t_spec1 /. Float.max 1e-9 t_spec4 in
      let gate_status =
        match floor with
        | None -> Printf.sprintf "%S" "skipped (single core)"
        | Some f ->
          if speedup_par < f then
            gate_failures :=
              Printf.sprintf
                "eval-engine: %s --jobs %d speculative speedup %.2fx is below the \
                 %.2fx floor"
                bench.Suite.bench_name par_jobs speedup_par f
              :: !gate_failures;
          Printf.sprintf "%S" (Printf.sprintf "enforced (min %.2fx)" f)
      in
      Table.add_row t
        [
          bench.Suite.bench_name;
          Printf.sprintf "%.2f" t_flat;
          Printf.sprintf "%.2f" t_ws;
          Printf.sprintf "%.2f" t_spec1;
          Printf.sprintf "%.2f" t_spec4;
          Printf.sprintf "%.2fx" speedup_ws;
          Printf.sprintf "%.2fx" speedup_par;
          Printf.sprintf "%.2f" busy;
          string_of_bool (ws_identical && spec_identical);
        ];
      json_eval_engine :=
        ( bench.Suite.bench_name,
          json_obj
            [
              ("flat_s", json_num t_flat);
              ("ws_parallel_s", json_num t_ws);
              ("sequential_s", json_num t_spec1);
              ("parallel_s", json_num t_spec4);
              ("speedup_ws", json_num speedup_ws);
              ("speedup_parallel", json_num speedup_par);
              ("parallel_jobs", string_of_int par_jobs);
              ("probes", string_of_int Search.default_num_probes);
              ("candidates_evaluated", string_of_int ev);
              ("cache_hits", string_of_int hits);
              ("pruned_infeasible", string_of_int pruned);
              ("delta_repriced", string_of_int repriced);
              ("batches_parallel", string_of_int bpar);
              ("batches_inline", string_of_int binl);
              ("steals_ws", string_of_int ws_steals);
              ("probes_launched", string_of_int probes_launched);
              ("probes_won", string_of_int probes_won);
              ("steals", string_of_int spec_steals);
              ("domain_busy_fraction", json_num busy);
              ("ws_identical_to_flat", string_of_bool ws_identical);
              ("parallel_identical_to_sequential", string_of_bool spec_identical);
              ("speedup_gate", gate_status);
              ( "speedup_gate_pass",
                string_of_bool
                  (match floor with None -> true | Some f -> speedup_par >= f) );
              ("points", string_of_int (List.length sw_spec1.Driver.sw_points));
            ] )
        :: !json_eval_engine)
    benches;
  ptable buf t;
  ps buf
    "(flat1: single-trajectory search, signature cache + delta re-pricing, one\n\
     domain.  ws4: the same flat engine on 4 domains — candidate batches\n\
     behind the measured-cost work-stealing gate, which keeps batches inline\n\
     when dispatch would cost more than the work.  spec1: speculative\n\
     multi-pivot search (4 probes per iteration) on one domain — the defined\n\
     sequential reference.  spec4: the same speculative engine on 4 domains,\n\
     probes and sweep points fanned out.  The identical column asserts\n\
     ws4==flat1 and spec4==spec1 designs, stats and sweep points\n\
     (bit-identical merge); x ws = flat1/ws4, x par = spec1/spec4; busy is\n\
     the mean fraction of parallel-phase domain-seconds spent evaluating.\n\
     The x par column is gated by --min-par-speedup / the core-count\n\
     default; a benchmark below the floor fails the run at exit)\n\n"

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the kernels                             *)
(* ------------------------------------------------------------------ *)

let bechamel_timings buf =
  let open Bechamel in
  let bench = Suite.gcd in
  let prog = Suite.program bench in
  let workload = bench.Suite.workload ~seed:8 ~passes:30 in
  let run = Sim.simulate prog ~workload in
  let b = Binding.parallel prog.Graph.graph Module_library.default in
  let dp = Datapath.build b in
  let cfg_sched = Scheduler.config_of_style Scheduler.Wavesched ~clock_ns:15. in
  let stg =
    Scheduler.schedule cfg_sched prog ~delay:(Datapath.delay_model dp)
      ~res:(Datapath.resource_model dp)
  in
  let ctx = Estimate.create_ctx run in
  let subs =
    Graph.fold_nodes prog.Graph.graph ~init:[] ~f:(fun acc n ->
        if n.Ir.kind = Ir.Op_sub then n.Ir.n_id :: acc else acc)
  in
  let traced =
    (* Every node with recorded events: the widest k-way merge the program
       offers, the guard for the heap-based [Traces.unit_switching_stats]. *)
    Graph.fold_nodes prog.Graph.graph ~init:[] ~f:(fun acc n ->
        if Sim.count run n.Ir.n_id > 0 then n.Ir.n_id :: acc
        else acc)
    |> List.rev
  in
  let enc_min = Enc.analytic stg run.Sim.profile in
  let area_ref = Binding.fu_area b +. Binding.reg_area b +. Datapath.mux_area dp in
  let env =
    {
      Solution.program = prog;
      library = Module_library.default;
      sched_config = cfg_sched;
      est_ctx = ctx;
      enc_budget = 2. *. enc_min;
      objective = Solution.Minimize_power;
      area_ref;
    }
  in
  let opt_once ?pool ?cache () =
    let initial = Solution.initial ?cache env in
    let rng = Rng.create ~seed:1 in
    ignore
      (Search.optimize env initial ~rng ~depth:2 ~max_candidates:10
         ~max_iterations:2 ?pool ?cache ())
  in
  let shared_cache = Solution.create_cache () in
  let parallel_cache = Solution.create_cache () in
  let pool = Parallel.create ~jobs:4 () in
  let net = Muxnet.create ~n_leaves:16 in
  let rng = Rng.create ~seed:4 in
  let aps = Array.init 16 (fun _ -> (Rng.float rng, Rng.float rng)) in
  let tests =
    [
      Test.make ~name:"behavioral-simulation"
        (Staged.stage (fun () -> ignore (Sim.simulate prog ~workload)));
      Test.make ~name:"wavesched-schedule"
        (Staged.stage (fun () ->
             ignore
               (Scheduler.schedule cfg_sched prog ~delay:(Datapath.delay_model dp)
                  ~res:(Datapath.resource_model dp))));
      Test.make ~name:"trace-merge"
        (Staged.stage (fun () -> ignore (Traces.unit_switching_stats run subs)));
      Test.make ~name:"trace-manip-kway"
        (Staged.stage (fun () -> ignore (Traces.unit_switching_stats run traced)));
      Test.make ~name:"optimize-sequential" (Staged.stage (fun () -> opt_once ()));
      Test.make ~name:"optimize-cached"
        (Staged.stage (fun () -> opt_once ~cache:shared_cache ()));
      Test.make ~name:"optimize-parallel"
        (Staged.stage (fun () -> opt_once ~pool ~cache:parallel_cache ()));
      Test.make ~name:"huffman-restructure"
        (Staged.stage (fun () -> Muxnet.restructure net ~ap:(fun i -> aps.(i))));
      Test.make ~name:"enc-analytic"
        (Staged.stage (fun () -> ignore (Enc.analytic stg run.Sim.profile)));
      Test.make ~name:"power-estimate"
        (Staged.stage (fun () -> ignore (Estimate.estimate ctx ~stg ~dp ())));
      Test.make ~name:"rtl-simulate"
        (Staged.stage (fun () -> ignore (Rtl_sim.simulate prog stg b ~workload)));
      Test.make ~name:"power-measure"
        (Staged.stage (fun () ->
             ignore (Impact_power.Measure.measure prog stg dp ~workload ())));
    ]
  in
  let grouped = Test.make_grouped ~name:"impact" tests in
  let benchmark_cfg =
    Benchmark.cfg ~limit:2000
      ~quota:(Time.second (if !quick then 0.2 else 0.5))
      ~kde:None ()
  in
  let raw =
    Fun.protect
      ~finally:(fun () -> Parallel.shutdown pool)
      (fun () -> Benchmark.all benchmark_cfg Toolkit.Instance.[ monotonic_clock ] grouped)
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let t =
    Table.create ~title:"Kernel timings (Bechamel, monotonic clock)"
      [ ("kernel", Table.Left); ("time per run", Table.Right) ]
  in
  let rows = ref [] in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ ns ] ->
        let pretty =
          if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
          else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
          else Printf.sprintf "%.0f ns" ns
        in
        rows := (name, pretty) :: !rows
      | _ -> rows := (name, "n/a") :: !rows)
    results;
  List.iter (fun (name, v) -> Table.add_row t [ name; v ]) (List.sort compare !rows);
  ptable buf t;
  Buffer.add_char buf '\n'

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
      ("store-warm-cold", store_warm_cold);
      ("store-warm-miss", store_warm_miss);
      ("sched-incremental", sched_incremental);
      ("eval-engine", eval_engine);
      ("timings", bechamel_timings);
    ]

(* Sections whose point is a timing comparison run on an otherwise idle
   machine, never concurrently with other sections (sched-incremental also
   toggles the process-global IMPACT_SCHED_CHECK variable). *)
let serial_sections =
  [ "store-warm-cold"; "store-warm-miss"; "sched-incremental"; "eval-engine"; "timings" ]

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
  (name, dt, Buffer.contents buf)

let emit (name, dt, text) =
  print_string text;
  flush stdout;
  json_section_times := (name, dt) :: !json_section_times

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | [] -> List.rev acc
    | "--quick" :: rest ->
      quick := true;
      parse acc rest
    | "--json" :: file :: rest ->
      json_out := Some file;
      parse acc rest
    | [ "--json" ] ->
      prerr_endline "--json requires a file argument";
      exit 1
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
    | "--min-par-speedup" :: x :: rest -> (
      match float_of_string_opt x with
      | Some x when x > 0. ->
        min_par_speedup := Some x;
        parse acc rest
      | _ ->
        prerr_endline "--min-par-speedup requires a positive number";
        exit 1)
    | [ "--min-par-speedup" ] ->
      prerr_endline "--min-par-speedup requires a positive number";
      exit 1
    | "--min-warm-speedup" :: x :: rest -> (
      match float_of_string_opt x with
      | Some x when x > 0. ->
        min_warm_speedup := x;
        parse acc rest
      | _ ->
        prerr_endline "--min-warm-speedup requires a positive number";
        exit 1)
    | [ "--min-warm-speedup" ] ->
      prerr_endline "--min-warm-speedup requires a positive number";
      exit 1
    | "--min-warmmiss-speedup" :: x :: rest -> (
      match float_of_string_opt x with
      | Some x when x > 0. ->
        min_warmmiss_speedup := x;
        parse acc rest
      | _ ->
        prerr_endline "--min-warmmiss-speedup requires a positive number";
        exit 1)
    | [ "--min-warmmiss-speedup" ] ->
      prerr_endline "--min-warmmiss-speedup requires a positive number";
      exit 1
    | "--min-resched-speedup" :: x :: rest -> (
      match float_of_string_opt x with
      | Some x when x > 0. ->
        min_resched_speedup := x;
        parse acc rest
      | _ ->
        prerr_endline "--min-resched-speedup requires a positive number";
        exit 1)
    | [ "--min-resched-speedup" ] ->
      prerr_endline "--min-resched-speedup requires a positive number";
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
  let jobs = if !bench_jobs = 0 then Parallel.num_domains () else max 1 !bench_jobs in
  if jobs > 1 then
    Printf.eprintf "bench: fanning sections and sweep points over %d jobs\n%!" jobs;
  (match jobs with
  | 1 -> List.iter (fun s -> emit (run_section s)) selected
  | _ ->
    Parallel.with_pool ~jobs (fun pool ->
        bench_pool := Some pool;
        Fun.protect
          ~finally:(fun () -> bench_pool := None)
          (fun () ->
            ignore
              (Parallel.map pool (fun b -> ignore (sweep_of b)) (sweeps_needed selected));
            (* Fan out maximal runs of parallel-safe sections; buffers are
               printed in selection order, so stdout is byte-identical to
               the jobs=1 run (modulo the timing numbers inside).  The
               timing-comparison sections run serially at their place. *)
            let rec go = function
              | [] -> ()
              | (name, _) :: _ as items when not (List.mem name serial_sections) ->
                let rec split acc = function
                  | ((n, _) as s) :: tl when not (List.mem n serial_sections) ->
                    split (s :: acc) tl
                  | tl -> (List.rev acc, tl)
                in
                let batch, rest = split [] items in
                List.iter emit (Parallel.map pool run_section batch);
                go rest
              | s :: rest ->
                emit (run_section s);
                go rest
            in
            go selected)));
  (match !json_out with
  | None -> ()
  | Some file ->
    write_json file ~jobs;
    Printf.printf "wrote %s\n%!" file);
  (* The parallel-speedup gate: failures are reported after the JSON
     artifact is written, so CI still gets the numbers it is failing on. *)
  match List.rev !gate_failures with
  | [] -> ()
  | failures ->
    List.iter (Printf.eprintf "bench: FAIL %s\n") failures;
    Printf.eprintf "bench: parallel speedup below the required floor\n%!";
    exit 1
