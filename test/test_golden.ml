(* Figure-13 golden: every benchmark's quick sweep pinned bit for bit.

   One MD5 per benchmark over the %h-rendered sweep (base power and area,
   every point's normalised A-Power/I-Power/I-Area and supplies) and, for
   each of its designs, the cost, area, ENC, Vdd, STG signature and the
   accepted-move list (Golden_render).  A change that moves any of these
   must say so, and why, with the new digest.  Quick options (test_core's),
   laxities 1.0 and 2.0, 10 workload passes at seed 1.  The default-option
   sweeps are pinned by figure13_default.ml, outside [dune runtest]. *)

module Suite = Impact_benchmarks.Suite
module Solution = Impact_core.Solution
module Moves = Impact_core.Moves
module Driver = Impact_core.Driver
module Measure = Impact_power.Measure
module Breakdown = Impact_power.Breakdown
module Controller = Impact_rtl.Controller
module Bitvec = Impact_util.Bitvec
module Sim = Impact_sim.Sim
module Profile = Impact_sim.Profile
module Graph = Impact_cdfg.Graph
module Ir = Impact_cdfg.Ir
module Rng = Impact_util.Rng

let quick_options =
  { Driver.default_options with depth = 3; max_candidates = 20; max_iterations = 10 }

(* Each benchmark's sweep is computed once and shared by both goldens. *)
let sweeps = Hashtbl.create 8

let sweep_of name =
  match Hashtbl.find_opt sweeps name with
  | Some sw -> sw
  | None ->
    let bench = Suite.find name in
    let workload = bench.Suite.workload ~seed:1 ~passes:10 in
    let sw =
      Driver.figure13 ~options:quick_options (Suite.program bench) ~workload
        ~laxities:[ 1.0; 2.0 ]
    in
    Hashtbl.replace sweeps name sw;
    sw

let golden name expected () =
  Alcotest.(check string) (name ^ " sweep digest") expected
    (Golden_render.sweep_digest (sweep_of name))

(* Measurement golden: the detailed power model pinned bit for bit.

   Per benchmark, the laxity-2.0 area and power designs of the sweep above
   (quick options, 10-pass seed-1 workload) and the power design with
   every steering network Huffman-restructured (so non-balanced mux shapes
   are covered), each measured on a 200-pass seed-1 workload at the Binary
   encoding; gcd's power design is measured at Gray and One_hot too.  One
   MD5 per benchmark over the %h-rendered power, breakdown and measured
   ENC of every measurement, plus every pass's outputs. *)
let render_measurement buf label (m : Measure.t) =
  let b = m.Measure.m_breakdown in
  Printf.bprintf buf "%s power=%h fu=%h reg=%h mux=%h ctrl=%h clock=%h wire=%h enc=%h\n"
    label m.Measure.m_power b.Breakdown.p_fu b.Breakdown.p_reg b.Breakdown.p_mux
    b.Breakdown.p_ctrl b.Breakdown.p_clock b.Breakdown.p_wire m.Measure.m_mean_cycles;
  Array.iter
    (fun outs ->
      List.iter
        (fun (name, v) -> Printf.bprintf buf " %s=%s" name (Bitvec.to_string v))
        outs;
      Buffer.add_char buf '\n')
    m.Measure.m_outputs

let measure_golden name expected () =
  let bench = Suite.find name in
  let prog = Suite.program bench in
  let workload = bench.Suite.workload ~seed:1 ~passes:200 in
  let point =
    List.find (fun p -> p.Driver.sp_laxity = 2.0) (sweep_of name).Driver.sw_points
  in
  let area = point.Driver.sp_area_design and power = point.Driver.sp_power_design in
  let buf = Buffer.create 65536 in
  List.iter
    (fun (label, d) -> render_measurement buf label (Driver.measure d prog ~workload ()))
    [ ("area", area); ("power", power); ("restructured", Driver.restructure_all power) ];
  if name = "gcd" then begin
    let s = power.Driver.d_solution in
    List.iter
      (fun encoding ->
        render_measurement buf (Controller.encoding_name encoding)
          (Measure.measure prog s.Solution.stg s.Solution.dp ~workload ~vdd:s.Solution.vdd
             ~encoding ()))
      [ Controller.Gray; Controller.One_hot ]
  end;
  Alcotest.(check string) (name ^ " measurement digest") expected
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let measure_cases =
  [
    ("loops", "d1e896df21b533f02042de3f00527fae");
    ("gcd", "52773c848141c8eae9afb3aaeff1db38");
    ("send", "d90506907a70156fc6710cddb58d24c6");
    ("dealer", "8b632aaf9dec08a1d48cef10ede94834");
    ("cordic", "c8a9b50bf5e3127562ec28ad3b26ad7b");
    ("paulin", "02b3c2e536371098dd71b01adf3b9599");
    ("atm", "30775c42386795be49156f9de90f8556");
    ("bresenham", "a92efb0208b63ed3eb8148d0d0514b89");
  ]

(* Random-walk measurement golden: the designs a search passes through,
   not only the ones it ends on.  Per benchmark, a seeded walk of random
   applicable moves from the initial power design (10-pass seed-1 workload,
   laxity 2.0) that only takes moves leading to feasible designs; each
   design on it is measured on a 200-pass seed-1 workload at the Binary,
   Gray and One_hot encodings.  One MD5 per benchmark over the same
   rendering as the measurement golden. *)
let walk_golden name expected () =
  let bench = Suite.find name in
  let prog = Suite.program bench in
  let env, _ =
    Driver.build_env prog ~workload:(bench.Suite.workload ~seed:1 ~passes:10)
      ~objective:Solution.Minimize_power ~laxity:2.0
  in
  let workload = bench.Suite.workload ~seed:1 ~passes:200 in
  let rng = Rng.create ~seed:17 in
  let buf = Buffer.create 65536 in
  let feasible mv =
    Option.bind mv (fun s -> if s.Solution.cost < infinity then Some s else None)
  in
  let rec walk sol step =
    if step < 10 then begin
      List.iter
        (fun encoding ->
          render_measurement buf
            (Printf.sprintf "step %d %s" step (Controller.encoding_name encoding))
            (Measure.measure prog sol.Solution.stg sol.Solution.dp ~workload
               ~vdd:sol.Solution.vdd ~encoding ()))
        [ Controller.Binary; Controller.Gray; Controller.One_hot ];
      match
        List.filter_map
          (fun mv -> feasible (Moves.apply env sol mv))
          (Moves.candidates env sol ~rng ~max:8)
      with
      | [] -> ()
      | succs -> walk (List.nth succs (Rng.int rng (List.length succs))) (step + 1)
    end
  in
  walk (Solution.initial env) 0;
  Alcotest.(check string) (name ^ " walk measurement digest") expected
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let walk_cases =
  [
    ("gcd", "185212ec77095dec9ab2653eb0cf2001");
    ("paulin", "f5c9de37801926c9d330a2816acd5567");
    ("dealer", "bad5fd182f27f07afe9b0a3f69ca0e7a");
  ]

(* Simulation golden: the behavioural run's content pinned bit for bit.

   Per benchmark, a 200-pass seed-1 simulation.  One MD5 over every event
   (pass, seq, tag, then width and bits of the output and of each input),
   every edge's value trace, every pass's outputs, the firing total, and
   the profile (condition counts per edge, loop exit counts and mean
   iterations).  The store test pins the persisted bytes; this pins the
   values, whatever the log's representation. *)
let sim_golden name expected () =
  let bench = Suite.find name in
  let prog = Suite.program bench in
  let g = prog.Graph.graph in
  let run = Sim.simulate prog ~workload:(bench.Suite.workload ~seed:1 ~passes:200) in
  let buf = Buffer.create 65536 in
  let vec v = Printf.bprintf buf " %d:%d" (Bitvec.width v) (Bitvec.bits v) in
  Graph.iter_nodes g ~f:(fun n ->
      Printf.bprintf buf "node %d\n" n.Ir.n_id;
      Array.iter
        (fun ev ->
          Printf.bprintf buf "%d %d %s" ev.Sim.ev_pass ev.Sim.ev_seq
            (match ev.Sim.ev_tag with
            | Sim.Tag_normal -> "n"
            | Sim.Tag_merge_init -> "i"
            | Sim.Tag_merge_back -> "b");
          vec ev.Sim.ev_output;
          Array.iter vec ev.Sim.ev_inputs;
          Buffer.add_char buf '\n')
        (Sim.node_events run n.Ir.n_id));
  Graph.iter_edges g ~f:(fun e ->
      Printf.bprintf buf "edge %d" e.Ir.e_id;
      Array.iter vec (Sim.edge_values run e.Ir.e_id);
      Printf.bprintf buf " cond %d %h\n"
        (Profile.cond_evaluations run.Sim.profile e.Ir.e_id)
        (Profile.prob_true run.Sim.profile e.Ir.e_id));
  Array.iter
    (fun outs ->
      List.iter (fun (out, v) -> Printf.bprintf buf " %s" out; vec v) outs;
      Buffer.add_char buf '\n')
    run.Sim.pass_outputs;
  Printf.bprintf buf "firings %d\n" run.Sim.firings_total;
  let rec loops = function
    | Ir.R_ops _ -> ()
    | Ir.R_seq rs -> List.iter loops rs
    | Ir.R_if { then_r; else_r; _ } -> loops then_r; loops else_r
    | Ir.R_loop { loop; cond_r; body; _ } ->
      Printf.bprintf buf "loop %d %d %h\n" loop
        (Profile.loop_exits run.Sim.profile loop)
        (Profile.mean_iterations run.Sim.profile loop);
      loops cond_r;
      loops body
  in
  loops prog.Graph.top;
  Alcotest.(check string) (name ^ " sim digest") expected
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let sim_cases =
  [
    ("loops", "23da2a8197c0b172d89dafddbdb92014");
    ("gcd", "5063ce8af6c9f805da31201cf7bc9192");
    ("send", "a8dbd0871ed142047b6ddd034165645c");
    ("dealer", "18e9a4c1ac5eabf11f093b3455e330be");
    ("cordic", "7178ebeb29e4d86b77ab1fc1d7aab234");
    ("paulin", "90067021d5be5288532476c07b1fffed");
    ("atm", "e10ef62d3c6ea35d63eb05bb273b6317");
    ("bresenham", "93ee612b0a47bed4359d51332010e77d");
  ]

let cases =
  [
    ("loops", "91f9f853a214972747ba01fd133146f0");
    ("gcd", "91246d0840bad0f6edbc42436c50ca2d");
    ("send", "6fa1a29f63a3e557275c64c16df85820");
    ("dealer", "e679d0ee2c1221013db68e863ae127c8");
    ("cordic", "454cf562d3d8b7480ec981fbbfa5f0fb");
    ("paulin", "b2007ee1fd0163af4b6d7af05540525f");
    ("atm", "dd1f15d15a4373718e892a0a678a3128");
    ("bresenham", "3e4a9d423531853abde497ca0a694d68");
  ]

let () =
  Alcotest.run "impact_golden"
    [
      ( "figure13",
        List.map
          (fun (name, expected) -> Alcotest.test_case name `Quick (golden name expected))
          cases );
      ( "measure",
        List.map
          (fun (name, expected) ->
            Alcotest.test_case name `Quick (measure_golden name expected))
          measure_cases );
      ( "measure-walk",
        List.map
          (fun (name, expected) -> Alcotest.test_case name `Quick (walk_golden name expected))
          walk_cases );
      ( "sim",
        List.map
          (fun (name, expected) -> Alcotest.test_case name `Quick (sim_golden name expected))
          sim_cases );
    ]
