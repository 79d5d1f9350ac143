(* Power-layer tests: trace manipulation, network statistics, Vdd scaling,
   the estimator, and the detailed measurement model. *)

module Ir = Impact_cdfg.Ir
module Graph = Impact_cdfg.Graph
module Elaborate = Impact_lang.Elaborate
module Sim = Impact_sim.Sim
module Scheduler = Impact_sched.Scheduler
module Stg = Impact_sched.Stg
module Binding = Impact_rtl.Binding
module Datapath = Impact_rtl.Datapath
module Traces = Impact_power.Traces
module Netstats = Impact_power.Netstats
module Vdd = Impact_power.Vdd
module Estimate = Impact_power.Estimate
module Measure = Impact_power.Measure
module Breakdown = Impact_power.Breakdown
module Module_library = Impact_modlib.Module_library
module Bitvec = Impact_util.Bitvec
module Rng = Impact_util.Rng
module Fixtures = Impact_benchmarks.Fixtures
module Suite = Impact_benchmarks.Suite
module Parser = Impact_lang.Parser
module Typecheck = Impact_lang.Typecheck
module Interp = Impact_lang.Interp

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

let clock = 15.

let three_addition_run () =
  let prog, edges = Fixtures.three_addition_edges () in
  let rng = Rng.create ~seed:21 in
  let workload =
    List.init 50 (fun _ ->
        [
          ("a", Rng.int_in rng 0 500);
          ("b", Rng.int_in rng 0 500);
          ("c", Rng.int_in rng 0 3);
          ("d", Rng.int_in rng 0 500);
          ("e", Rng.int_in rng 0 500);
        ])
  in
  (prog, edges, Sim.simulate prog ~workload, workload)

let find_adds prog =
  Graph.fold_nodes prog.Graph.graph ~init:[] ~f:(fun acc n ->
      if n.Ir.kind = Ir.Op_add then n.Ir.n_id :: acc else acc)
  |> List.rev

(* --- Trace manipulation (the paper's Section 2.3 example, E8) ------------- *)

let test_merged_trace_order () =
  let prog, _, run, _ = three_addition_run () in
  let adds = find_adds prog in
  let merged = Traces.unit_trace run adds in
  (* The shared adder executes +1 every pass and exactly one of +2/+3:
     two entries per pass, +1 first (it computes e7 consumed by the other). *)
  check_int "two entries per pass" (2 * run.Sim.passes) (Array.length merged);
  Array.iteri
    (fun i entry ->
      if i mod 2 = 0 then
        check_int
          (Printf.sprintf "entry %d is +1" i)
          (List.nth adds 0) entry.Traces.tr_node)
    merged

let test_merged_trace_equals_resimulation () =
  (* The paper's key claim: merging recorded traces gives the same result as
     re-simulating.  Simulate the same workload twice; the merged unit trace
     from run1 must equal the one from run2. *)
  let prog, _, run1, workload = three_addition_run () in
  let run2 = Sim.simulate prog ~workload in
  let adds = find_adds prog in
  let t1 = Traces.unit_trace run1 adds in
  let t2 = Traces.unit_trace run2 adds in
  check_int "same length" (Array.length t1) (Array.length t2);
  Array.iteri
    (fun i e1 ->
      let e2 = t2.(i) in
      check_int "same op" e1.Traces.tr_node e2.Traces.tr_node;
      check_bool "same output" true (Bitvec.equal e1.Traces.tr_output e2.Traces.tr_output))
    t1

let test_merged_trace_condition_selects () =
  (* With c > 1 the condition (1 < c) is true and +3 runs; with c <= 1, +2.
     Check the merged trace follows the condition like Figure 6's STG. *)
  let prog, _, _, _ = three_addition_run () in
  let workload =
    [
      [ ("a", 1); ("b", 2); ("c", 5); ("d", 3); ("e", 4) ];
      [ ("a", 1); ("b", 2); ("c", 0); ("d", 3); ("e", 4) ];
      [ ("a", 1); ("b", 2); ("c", 2); ("d", 3); ("e", 4) ];
    ]
  in
  let run = Sim.simulate prog ~workload in
  let adds = find_adds prog in
  let add2 = List.nth adds 2 (* +2 emitted after +3 in the fixture *) in
  let add3 = List.nth adds 1 in
  let merged = Traces.unit_trace run adds in
  let second_of_pass p =
    Array.to_list merged |> List.filter (fun e -> e.Traces.tr_pass = p) |> fun l ->
    List.nth l 1
  in
  check_int "pass 0 takes +3" add3 (second_of_pass 0).Traces.tr_node;
  check_int "pass 1 takes +2" add2 (second_of_pass 1).Traces.tr_node;
  check_int "pass 2 takes +3" add3 (second_of_pass 2).Traces.tr_node

let test_switching_per_access () =
  let mk = Bitvec.make ~width:8 in
  check_float "alternating all bits" 1.
    (Traces.switching_per_access ~width:8 [| mk 0; mk 255; mk 0 |]);
  check_float "constant" 0.
    (Traces.switching_per_access ~width:8 [| mk 7; mk 7; mk 7 |]);
  check_float "single bit flip" (1. /. 8.)
    (Traces.switching_per_access ~width:8 [| mk 0; mk 1 |])

let test_value_switching_const_zero () =
  let prog, edges, run, _ = three_addition_run () in
  ignore edges;
  ignore prog;
  check_float "constants do not switch" 0.
    (Traces.value_switching run ~key:(Datapath.K_const (Bitvec.make ~width:16 1)))

(* The streamed statistics must equal the ones folded from the
   materialised merge, bit for bit. *)
let folded_stats trace =
  let n = Array.length trace in
  if n < 2 then (0., 0.)
  else begin
    let in_acc = ref 0. and out_acc = ref 0 and out_bits = ref 0 in
    for i = 1 to n - 1 do
      let prev = trace.(i - 1) and cur = trace.(i) in
      let pa = prev.Traces.tr_inputs and pb = cur.Traces.tr_inputs in
      let bits = ref 0 and diff = ref 0 in
      for p = 0 to min (Array.length pa) (Array.length pb) - 1 do
        let a = pa.(p) and b = pb.(p) in
        if Bitvec.width a = Bitvec.width b then begin
          bits := !bits + Bitvec.width a;
          diff := !diff + Bitvec.hamming a b
        end
      done;
      in_acc :=
        !in_acc +. if !bits = 0 then 0. else float_of_int !diff /. float_of_int !bits;
      let a = prev.Traces.tr_output and b = cur.Traces.tr_output in
      if Bitvec.width a = Bitvec.width b then begin
        out_acc := !out_acc + Bitvec.hamming a b;
        out_bits := !out_bits + Bitvec.width a
      end
    done;
    ( !in_acc /. float_of_int (n - 1),
      if !out_bits = 0 then 0. else float_of_int !out_acc /. float_of_int !out_bits )
  end

let benchmark_runs =
  lazy
    (Array.of_list
       (List.map
          (fun bench ->
            Sim.simulate (Suite.program bench)
              ~workload:(bench.Suite.workload ~seed:1 ~passes:100))
          Suite.all_extended))

let streamed_equals_folded run nodes =
  let st = Traces.unit_switching_stats run nodes in
  let fin, fout = folded_stats (Traces.unit_trace run nodes) in
  Int64.bits_of_float st.Traces.us_input_sw = Int64.bits_of_float fin
  && Int64.bits_of_float st.Traces.us_output_sw = Int64.bits_of_float fout

let test_streamed_stats_empty_and_single () =
  Array.iter
    (fun run ->
      check_bool "empty" true (streamed_equals_folded run []);
      for nid = 0 to Graph.node_count run.Sim.program.Graph.graph - 1 do
        check_bool (Printf.sprintf "node %d" nid) true (streamed_equals_folded run [ nid ])
      done)
    (Lazy.force benchmark_runs)

let prop_streamed_stats =
  QCheck.Test.make ~name:"streamed stats = folded unit_trace" ~count:200
    QCheck.(pair (int_range 0 7) (list_of_size Gen.(int_range 2 4) small_nat))
    (fun (b, picks) ->
      let run = (Lazy.force benchmark_runs).(b) in
      let nn = Graph.node_count run.Sim.program.Graph.graph in
      streamed_equals_folded run
        (List.sort_uniq Int.compare (List.map (fun i -> i mod nn) picks)))

(* The columnar log across its chunk boundaries: a loop run so that its
   merges, condition and body nodes fire just under, exactly at and just
   over one and two full chunks.  Every node's count, materialised events
   and tag counts agree, its chunks carry no padding, both passes' outputs
   equal the reference interpreter's, and the streamed statistics (single
   nodes and the whole-program k-way merge) equal the folded ones. *)
let chunk_source =
  {|process chunked(n : int16, k : int16) -> (s : int16, c : int16) {
  var i : int16 = 0;
  var acc : int16 = 0;
  while (i < n) {
    if (i < k) { acc = acc + i; } else { acc = acc - k; }
    i = i + 1;
  }
  s = acc;
  c = i;
}|}

let test_chunk_boundaries () =
  let prog = Elaborate.from_source chunk_source in
  let typed = Typecheck.check (Parser.parse chunk_source) in
  let nodes = List.init (Graph.node_count prog.Graph.graph) Fun.id in
  List.iter
    (fun iters ->
      let workload = [ [ ("n", iters); ("k", 5) ]; [ ("n", iters); ("k", 700) ] ] in
      let run = Sim.simulate prog ~workload in
      let what fmt = Printf.ksprintf (fun m -> Printf.sprintf "%d iterations: %s" iters m) fmt in
      List.iter
        (fun nid ->
          let count = Sim.count run nid and l = run.Sim.logs.(nid) in
          check_int (what "node %d events" nid) count (Array.length (Sim.node_events run nid));
          check_int (what "node %d tags" nid) count
            (List.fold_left (fun acc t -> acc + Sim.tag_count run nid t) 0
               [ Sim.Tag_normal; Sim.Tag_merge_init; Sim.Tag_merge_back ]);
          check_int (what "node %d unpadded" nid) (count * l.Sim.stride)
            (Array.fold_left (fun acc c -> acc + Array.length c) 0 l.Sim.chunks);
          check_bool (what "node %d streamed" nid) true (streamed_equals_folded run [ nid ]))
        nodes;
      check_bool (what "some node crosses a chunk") true
        (List.exists (fun nid -> Sim.count run nid > Sim.chunk_events) nodes);
      (* Rows read back in firing order: (pass, seq) strictly increasing, and
         the counter's merge carries 0..iters in every pass. *)
      List.iter
        (fun nid ->
          for i = 1 to Sim.count run nid - 1 do
            let p0 = Sim.pass run nid (i - 1) and p1 = Sim.pass run nid i in
            if not (p0 < p1 || (p0 = p1 && Sim.seq run nid (i - 1) < Sim.seq run nid i)) then
              Alcotest.failf "%s" (what "node %d rows %d and %d out of order" nid (i - 1) i)
          done)
        nodes;
      check_bool (what "counter merge values") true
        (List.exists
           (fun nid ->
             (Graph.node prog.Graph.graph nid).Ir.kind = Ir.Op_loop_merge
             && Sim.count run nid = 2 * (iters + 1)
             && List.for_all
                  (fun i -> Sim.output run nid i = i mod (iters + 1))
                  (List.init (Sim.count run nid) Fun.id))
           nodes);
      check_bool (what "k-way streamed") true (streamed_equals_folded run nodes);
      List.iteri
        (fun pass inputs ->
          List.iter
            (fun (name, v) ->
              check_int (what "%s pass %d" name pass) (Bitvec.to_signed v)
                (Bitvec.to_signed (List.assoc name run.Sim.pass_outputs.(pass))))
            (Interp.run typed ~inputs).Interp.results)
        workload)
    [ 1023; 1024; 1025; 2049 ]

(* An independent reference for the merge: the union of the nodes'
   materialised events, sorted by (pass, seq).  [unit_trace] must equal it
   row for row, and [unit_switching_stats] must equal the statistics folded
   from it, bit for bit. *)
let reference_trace run nodes =
  List.concat_map
    (fun nid -> Array.to_list (Array.map (fun ev -> (nid, ev)) (Sim.node_events run nid)))
    nodes
  |> List.stable_sort (fun (_, a) (_, b) ->
         match Int.compare a.Sim.ev_pass b.Sim.ev_pass with
         | 0 -> Int.compare a.Sim.ev_seq b.Sim.ev_seq
         | c -> c)
  |> List.map (fun (nid, ev) ->
         {
           Traces.tr_node = nid;
           tr_inputs = ev.Sim.ev_inputs;
           tr_output = ev.Sim.ev_output;
           tr_pass = ev.Sim.ev_pass;
           tr_seq = ev.Sim.ev_seq;
         })
  |> Array.of_list

let same_row (a : Traces.entry) (b : Traces.entry) =
  a.Traces.tr_node = b.Traces.tr_node
  && a.Traces.tr_pass = b.Traces.tr_pass
  && a.Traces.tr_seq = b.Traces.tr_seq
  && Bitvec.equal a.Traces.tr_output b.Traces.tr_output
  && Array.length a.Traces.tr_inputs = Array.length b.Traces.tr_inputs
  && Array.for_all2 Bitvec.equal a.Traces.tr_inputs b.Traces.tr_inputs

let matches_reference run nodes =
  let reference = reference_trace run nodes in
  let merged = Traces.unit_trace run nodes in
  let st = Traces.unit_switching_stats run nodes in
  let fin, fout = folded_stats reference in
  Array.length merged = Array.length reference
  && Array.for_all2 same_row merged reference
  && Int64.bits_of_float st.Traces.us_input_sw = Int64.bits_of_float fin
  && Int64.bits_of_float st.Traces.us_output_sw = Int64.bits_of_float fout

let all_nodes run = List.init (Graph.node_count run.Sim.program.Graph.graph) Fun.id

(* The chunk-boundary program's runs, each crossing one or two chunks. *)
let chunk_runs =
  lazy
    (let prog = Elaborate.from_source chunk_source in
     List.map
       (fun iters ->
         let workload = [ [ ("n", iters); ("k", 5) ]; [ ("n", iters); ("k", 700) ] ] in
         (iters, Sim.simulate prog ~workload))
       [ 1023; 1024; 1025; 2049 ])

let test_reference_single_nodes () =
  Array.iteri
    (fun b run ->
      check_bool (Printf.sprintf "run %d: empty" b) true (matches_reference run []);
      List.iter
        (fun nid ->
          check_bool (Printf.sprintf "run %d: node %d" b nid) true (matches_reference run [ nid ]))
        (all_nodes run))
    (Lazy.force benchmark_runs)

let prop_reference_merge =
  QCheck.Test.make ~name:"unit_trace and stats = sorted node events, 2-4 nodes" ~count:200
    QCheck.(pair (int_range 0 7) (list_of_size Gen.(int_range 2 4) small_nat))
    (fun (b, picks) ->
      let run = (Lazy.force benchmark_runs).(b) in
      let nn = Graph.node_count run.Sim.program.Graph.graph in
      matches_reference run (List.sort_uniq Int.compare (List.map (fun i -> i mod nn) picks)))

let test_reference_across_chunks () =
  List.iter
    (fun (iters, run) ->
      check_bool (Printf.sprintf "%d iterations: whole program" iters) true
        (matches_reference run (all_nodes run));
      List.iter
        (fun nid ->
          check_bool (Printf.sprintf "%d iterations: node %d" iters nid) true
            (matches_reference run [ nid ]))
        (all_nodes run))
    (Lazy.force chunk_runs)

(* [value_switching] on every node and input key a run's edges carry
   equals [switching_per_access] over the key's first edge's values. *)
let test_value_switching_edge_values () =
  let check_run what run =
    let g = run.Sim.program.Graph.graph in
    let seen = Hashtbl.create 64 in
    Graph.iter_edges g ~f:(fun e ->
        let key =
          match e.Ir.source with
          | Ir.From_node nid -> Some (Datapath.K_node nid)
          | Ir.Primary_input name -> Some (Datapath.K_input name)
          | Ir.Const _ -> None
        in
        match key with
        | Some key when not (Hashtbl.mem seen key) ->
          Hashtbl.add seen key ();
          let want =
            Traces.switching_per_access ~width:e.Ir.e_width (Sim.edge_values run e.Ir.e_id)
          in
          let got = Traces.value_switching run ~key in
          if Int64.bits_of_float got <> Int64.bits_of_float want then
            Alcotest.failf "%s: edge e%d: value_switching %h, edge values %h" what e.Ir.e_id got
              want
        | _ -> ());
    check_bool (what ^ ": some input key") true
      (Hashtbl.fold (fun k () acc -> acc || match k with Datapath.K_input _ -> true | _ -> false)
         seen false)
  in
  Array.iteri (fun b run -> check_run (Printf.sprintf "run %d" b) run) (Lazy.force benchmark_runs);
  List.iter
    (fun (iters, run) -> check_run (Printf.sprintf "%d iterations" iters) run)
    (Lazy.force chunk_runs)

let naive_popcount x =
  let c = ref 0 in
  for i = 0 to 62 do
    if (x lsr i) land 1 = 1 then incr c
  done;
  !c

let prop_popcount =
  QCheck.Test.make ~name:"popcount and hamming = naive bit loop, widths 1..62" ~count:200
    QCheck.(pair int int)
    (fun (u, v) ->
      List.for_all
        (fun w ->
          let a = Bitvec.make ~width:w u and b = Bitvec.make ~width:w v in
          let ones = Bitvec.make ~width:w (-1) in
          Bitvec.popcount a = naive_popcount (Bitvec.bits a)
          && Bitvec.popcount ones = w
          && Bitvec.hamming a b = naive_popcount (Bitvec.bits a lxor Bitvec.bits b)
          && Bitvec.hamming ones (Bitvec.zero ~width:w) = w)
        (List.init 62 (fun i -> i + 1)))

(* --- Netstats --------------------------------------------------------------- *)

let test_netstats_probabilities () =
  let prog, _, run, _ = three_addition_run () in
  let b0 = Binding.parallel prog.Graph.graph Module_library.default in
  let adds = find_adds prog in
  let b =
    match adds with
    | a1 :: a2 :: a3 :: _ ->
      let f1 = Option.get (Binding.fu_of b0 a1) in
      let b = Result.get_ok (Binding.share_fu b0 f1 (Option.get (Binding.fu_of b0 a2))) in
      Result.get_ok (Binding.share_fu b f1 (Option.get (Binding.fu_of b a3)))
    | _ -> Alcotest.fail "expected three adds"
  in
  let dp = Datapath.build b in
  let fu = Option.get (Binding.fu_of b (List.hd adds)) in
  match Datapath.fu_input_network dp ~fu ~port:0 with
  | None -> Alcotest.fail "shared adder should have an input network"
  | Some idx ->
    let stats = Netstats.network_stats run dp idx in
    let total = Array.fold_left ( +. ) 0. stats.Netstats.p in
    check_bool "probabilities sum to 1" true (abs_float (total -. 1.) < 1e-9);
    (* +1 executes every pass; it accounts for half the accesses. *)
    let max_p = Array.fold_left max 0. stats.Netstats.p in
    check_bool "dominant leaf is half the accesses" true (abs_float (max_p -. 0.5) < 0.05)

let test_signal_report () =
  let prog, _, run, _ = three_addition_run () in
  let adds = find_adds prog in
  let report = Netstats.signal_report run (List.hd adds) in
  check_int "accesses = passes (the unconditional +1)" run.Sim.passes
    report.Netstats.sr_accesses;
  check_bool "mean switching in [0,1]" true
    (report.Netstats.sr_mean_switching >= 0. && report.Netstats.sr_mean_switching <= 1.);
  check_bool "temporal correlation in [-1,1]" true
    (abs_float report.Netstats.sr_temporal_correlation <= 1. +. 1e-9)

let test_spatial_correlation_self () =
  let prog, _, run, _ = three_addition_run () in
  let adds = find_adds prog in
  let a = List.hd adds in
  check_bool "self correlation is 1" true
    (abs_float (Netstats.spatial_correlation run a a -. 1.) < 1e-9)

let test_spatial_correlation_dependent () =
  (* +3 consumes +1's output: their per-pass activities should correlate
     positively. *)
  let prog, _, run, _ = three_addition_run () in
  match find_adds prog with
  | a1 :: a3 :: _ ->
    let corr = Netstats.spatial_correlation run a1 a3 in
    check_bool (Printf.sprintf "dependent ops correlate (%.2f)" corr) true (corr > 0.)
  | _ -> Alcotest.fail "expected adds"

(* --- Vdd --------------------------------------------------------------------- *)

let test_vdd_nominal () =
  check_float "ratio 1 at nominal" 1. (Vdd.delay_ratio Vdd.nominal);
  check_float "power factor 1" 1. (Vdd.power_factor Vdd.nominal);
  check_float "no stretch keeps 5V" Vdd.nominal (Vdd.scale_for_stretch 1.0)

let test_vdd_monotonic () =
  let v2 = Vdd.scale_for_stretch 2.0 in
  let v3 = Vdd.scale_for_stretch 3.0 in
  check_bool "more stretch, lower supply" true (v3 < v2 && v2 < Vdd.nominal);
  check_bool "scaled delay fits stretch" true (Vdd.delay_ratio v2 <= 2.0 +. 1e-6);
  check_bool "power drops quadratically" true (Vdd.power_factor v2 < 0.5)

let test_vdd_stretch_components () =
  check_float "combined stretch" 3.
    (Vdd.stretch ~enc_budget:30. ~enc_achieved:15. ~clock_ns:15. ~critical_ns:10.);
  check_float "floored at 1" 1.
    (Vdd.stretch ~enc_budget:10. ~enc_achieved:20. ~clock_ns:15. ~critical_ns:15.)

(* --- Ledger listing ------------------------------------------------------------ *)

module Solution = Impact_core.Solution
module Moves = Impact_core.Moves

(* The reference listing: labels written with [Printf], ordered by the
   polymorphic sort, as every persisted [de_ledger] holds them.  The
   library's listing must equal it term for term, or stored designs stop
   hitting. *)
let printf_listing lg =
  let label = function
    | Estimate.Scalar name -> name
    | Estimate.Fu id -> Printf.sprintf "fu %d" id
    | Estimate.Reg_write id -> Printf.sprintf "reg-write %d" id
    | Estimate.Reg_clock id -> Printf.sprintf "reg-clock %d" id
    | Estimate.Net (Datapath.P_fu_input (fu, port)) -> Printf.sprintf "net fu%d port %d" fu port
    | Estimate.Net (Datapath.P_reg_write reg) -> Printf.sprintf "net reg %d" reg
    | Estimate.Act nid -> Printf.sprintf "act n%d" nid
  in
  List.sort compare (List.map (fun (t, v) -> (label t, v)) (Estimate.ledger_entries lg))

let ledger_env bench objective =
  let prog = Suite.program bench in
  let run = Sim.simulate prog ~workload:(bench.Suite.workload ~seed:5 ~passes:12) in
  let min_stg =
    Scheduler.min_enc_schedule Scheduler.Wavesched ~clock_ns:clock prog Module_library.default
  in
  {
    Solution.program = prog;
    library = Module_library.default;
    sched_config = Scheduler.config_of_style Scheduler.Wavesched ~clock_ns:clock;
    est_ctx = Estimate.create_ctx run;
    enc_budget = 2.5 *. Impact_sched.Enc.analytic min_stg run.Sim.profile;
    objective;
    area_ref = 1.;
  }

let test_ledger_listing () =
  let bits l = List.map (fun (label, v) -> (label, Int64.bits_of_float v)) l in
  let compared = ref 0 in
  List.iter
    (fun (bench, objective, seed) ->
      let env = ledger_env bench objective in
      let rng = Rng.create ~seed in
      let check sol =
        match Solution.ledger sol with
        | None -> ()
        | Some lg ->
          incr compared;
          if bits (Estimate.ledger_terms lg) <> bits (printf_listing lg) then
            Alcotest.failf "%s: listing differs from the Printf reference after %d listings"
              bench.Suite.bench_name !compared
      in
      let rec walk sol steps =
        check sol;
        if steps > 0 then
          match
            List.find_map (Moves.apply env sol) (Moves.candidates env sol ~rng ~max:8)
          with
          | Some next -> walk next (steps - 1)
          | None -> ()
      in
      walk (Solution.initial env) 12)
    (List.concat_map
       (fun bench ->
         [ (bench, Solution.Minimize_power, 3); (bench, Solution.Minimize_area, 9) ])
       [ Suite.gcd; Suite.paulin; Suite.cordic ]);
  check_bool "listings compared" true (!compared >= 30)

(* --- Estimator vs measurement ------------------------------------------------ *)

let build_design src seed =
  let prog = Elaborate.from_source src in
  let rng = Rng.create ~seed in
  let workload =
    List.init 40 (fun _ ->
        [ ("a", Rng.int_in rng 1 200); ("b", Rng.int_in rng 1 200) ])
  in
  let run = Sim.simulate prog ~workload in
  let b = Binding.parallel prog.Graph.graph Module_library.default in
  let dp = Datapath.build b in
  let stg =
    Scheduler.schedule
      (Scheduler.config_of_style Scheduler.Wavesched ~clock_ns:clock)
      prog ~delay:(Datapath.delay_model dp) ~res:(Datapath.resource_model dp)
  in
  (prog, workload, run, dp, stg)

let gcd_src = Suite.gcd.Suite.source

let test_estimator_positive_components () =
  let _, _, run, dp, stg = build_design gcd_src 31 in
  let ctx = Estimate.create_ctx run in
  let est = Estimate.estimate ctx ~stg ~dp () in
  let bd = est.Estimate.est_breakdown in
  check_bool "fu power positive" true (bd.Breakdown.p_fu > 0.);
  check_bool "reg power positive" true (bd.Breakdown.p_reg > 0.);
  check_bool "mux power positive" true (bd.Breakdown.p_mux > 0.);
  check_bool "ctrl power positive" true (bd.Breakdown.p_ctrl > 0.);
  check_bool "enc positive" true (est.Estimate.est_enc > 1.)

let test_estimator_tracks_measurement () =
  (* The estimator need not match the detailed measurement absolutely, but
     must be well within an order of magnitude and correlate in direction
     across supply voltages. *)
  let prog, workload, run, dp, stg = build_design gcd_src 32 in
  let ctx = Estimate.create_ctx run in
  let est = Estimate.estimate ctx ~stg ~dp () in
  let meas = Measure.measure prog stg dp ~workload () in
  let ratio = est.Estimate.est_power /. meas.Measure.m_power in
  check_bool
    (Printf.sprintf "estimate %.4f within 3x of measurement %.4f" est.Estimate.est_power
       meas.Measure.m_power)
    true
    (ratio > 1. /. 3. && ratio < 3.)

let test_vdd_scales_both () =
  let prog, workload, run, dp, stg = build_design gcd_src 33 in
  let ctx = Estimate.create_ctx run in
  let est5 = Estimate.estimate ctx ~stg ~dp ~vdd:5.0 () in
  let est3 = Estimate.estimate ctx ~stg ~dp ~vdd:3.0 () in
  check_bool "estimate scales with vdd^2" true
    (abs_float ((est3.Estimate.est_power /. est5.Estimate.est_power) -. 0.36) < 1e-6);
  let m5 = Measure.measure prog stg dp ~workload ~vdd:5.0 () in
  let m3 = Measure.measure prog stg dp ~workload ~vdd:3.0 () in
  check_bool "measurement scales with vdd^2" true
    (abs_float ((m3.Measure.m_power /. m5.Measure.m_power) -. 0.36) < 1e-6)

let test_measurement_deterministic () =
  let prog, workload, _, dp, stg = build_design gcd_src 34 in
  let m1 = Measure.measure prog stg dp ~workload () in
  let m2 = Measure.measure prog stg dp ~workload () in
  check_float "same power" m1.Measure.m_power m2.Measure.m_power

let test_sharing_increases_mux_power () =
  (* Sharing the two GCD subtractions adds steering muxes: the measured mux
     component must grow. *)
  let prog, workload, _, dp0, stg0 = build_design gcd_src 35 in
  let b0 = Datapath.binding dp0 in
  let subs =
    Graph.fold_nodes prog.Graph.graph ~init:[] ~f:(fun acc n ->
        if n.Ir.kind = Ir.Op_sub then n.Ir.n_id :: acc else acc)
  in
  match subs with
  | s1 :: s2 :: _ ->
    let b =
      Result.get_ok
        (Binding.share_fu b0
           (Option.get (Binding.fu_of b0 s1))
           (Option.get (Binding.fu_of b0 s2)))
    in
    let dp = Datapath.build b in
    let stg =
      Scheduler.schedule
        (Scheduler.config_of_style Scheduler.Wavesched ~clock_ns:clock)
        prog ~delay:(Datapath.delay_model dp) ~res:(Datapath.resource_model dp)
    in
    let m0 = Measure.measure prog stg0 dp0 ~workload () in
    let m1 = Measure.measure prog stg dp ~workload () in
    check_bool "mux power grows under sharing" true
      (m1.Measure.m_breakdown.Breakdown.p_mux > m0.Measure.m_breakdown.Breakdown.p_mux)
    (* Note: per-cycle FU power may rise OR fall under sharing — the shared
       unit sees alternating operand streams (Section 3.2.3's trade-off), so
       no assertion is made on it. *)
  | _ -> Alcotest.fail "expected two subs"

let test_merged_trace_sorted_and_order_blind () =
  let prog, _, run, _ = three_addition_run () in
  let adds = find_adds prog in
  let merged = Traces.unit_trace run adds in
  let ascending = ref true in
  for i = 1 to Array.length merged - 1 do
    let a = merged.(i - 1) and b = merged.(i) in
    if compare (a.Traces.tr_pass, a.Traces.tr_seq) (b.Traces.tr_pass, b.Traces.tr_seq) >= 0
    then ascending := false
  done;
  check_bool "strictly ascending (pass, seq)" true !ascending;
  (* The merge is a function of the node set, not the list order. *)
  let merged_rev = Traces.unit_trace run (List.rev adds) in
  check_int "same length" (Array.length merged) (Array.length merged_rev);
  Array.iteri
    (fun i e -> check_int "same entry order" e.Traces.tr_node merged_rev.(i).Traces.tr_node)
    merged;
  (* Single-node fast path is just the event stream. *)
  let first = List.hd adds in
  check_int "single-node trace = event stream"
    (Array.length (Sim.node_events run first))
    (Array.length (Traces.unit_trace run [ first ]))

let test_memo_canonical_keys () =
  (* Satellite: permuted-but-equal unit groupings must hit the same memo
     entry instead of missing on list order. *)
  let prog, _, run, _ = three_addition_run () in
  let adds = find_adds prog in
  let ctx = Estimate.create_ctx run in
  let v1 = Estimate.unit_input_switching ctx adds in
  let entries_after_first = Estimate.memo_entries ctx in
  let v2 = Estimate.unit_input_switching ctx (List.rev adds) in
  check_float "permuted group, same value" v1 v2;
  check_int "permuted group, same memo entry" entries_after_first
    (Estimate.memo_entries ctx);
  let o1 = Estimate.unit_output_switching ctx adds in
  let entries_after_out = Estimate.memo_entries ctx in
  let o2 = Estimate.unit_output_switching ctx (List.rev adds) in
  check_float "output: permuted group, same value" o1 o2;
  check_int "output: permuted group, same memo entry" entries_after_out
    (Estimate.memo_entries ctx);
  (* The memoised values agree with the direct trace computation. *)
  check_float "memo = direct" (Traces.unit_switching_stats run adds).Traces.us_input_sw v1

let test_breakdown_algebra () =
  let a =
    { Breakdown.p_fu = 1.; p_reg = 2.; p_mux = 3.; p_ctrl = 4.; p_clock = 5.; p_wire = 6. }
  in
  check_float "total" 21. (Breakdown.total a);
  check_float "scale" 42. (Breakdown.total (Breakdown.scale a 2.));
  check_float "add" 42. (Breakdown.total (Breakdown.add a a));
  check_bool "mux fraction" true (abs_float (Breakdown.mux_fraction a -. (3. /. 21.)) < 1e-9)

let () =
  Alcotest.run "impact_power"
    [
      ( "traces",
        [
          Alcotest.test_case "merged order" `Quick test_merged_trace_order;
          Alcotest.test_case "merge = resimulation" `Quick test_merged_trace_equals_resimulation;
          Alcotest.test_case "condition selects" `Quick test_merged_trace_condition_selects;
          Alcotest.test_case "switching per access" `Quick test_switching_per_access;
          Alcotest.test_case "constants don't switch" `Quick test_value_switching_const_zero;
          Alcotest.test_case "merge sorted, order-blind" `Quick
            test_merged_trace_sorted_and_order_blind;
          Alcotest.test_case "memo canonical keys" `Quick test_memo_canonical_keys;
          Alcotest.test_case "streamed stats, empty and single nodes" `Quick
            test_streamed_stats_empty_and_single;
          QCheck_alcotest.to_alcotest prop_streamed_stats;
          Alcotest.test_case "columnar log across chunk boundaries" `Quick
            test_chunk_boundaries;
          QCheck_alcotest.to_alcotest prop_popcount;
          Alcotest.test_case "merge = sorted node events, single nodes" `Quick
            test_reference_single_nodes;
          QCheck_alcotest.to_alcotest prop_reference_merge;
          Alcotest.test_case "merge = sorted node events across chunks" `Quick
            test_reference_across_chunks;
          Alcotest.test_case "value switching = edge values" `Quick
            test_value_switching_edge_values;
        ] );
      ( "netstats",
        [
          Alcotest.test_case "probabilities" `Quick test_netstats_probabilities;
          Alcotest.test_case "signal report" `Quick test_signal_report;
          Alcotest.test_case "spatial self" `Quick test_spatial_correlation_self;
          Alcotest.test_case "spatial dependent" `Quick test_spatial_correlation_dependent;
        ] );
      ( "vdd",
        [
          Alcotest.test_case "nominal" `Quick test_vdd_nominal;
          Alcotest.test_case "monotonic" `Quick test_vdd_monotonic;
          Alcotest.test_case "stretch" `Quick test_vdd_stretch_components;
        ] );
      ( "ledger",
        [ Alcotest.test_case "listing = Printf reference" `Quick test_ledger_listing ] );
      ( "estimator",
        [
          Alcotest.test_case "components positive" `Quick test_estimator_positive_components;
          Alcotest.test_case "tracks measurement" `Quick test_estimator_tracks_measurement;
          Alcotest.test_case "vdd scaling" `Quick test_vdd_scales_both;
          Alcotest.test_case "measurement deterministic" `Quick test_measurement_deterministic;
          Alcotest.test_case "sharing grows mux power" `Quick test_sharing_increases_mux_power;
          Alcotest.test_case "breakdown algebra" `Quick test_breakdown_algebra;
        ] );
    ]
