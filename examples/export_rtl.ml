(* Exporting a synthesized design as RTL artifacts: Verilog module,
   self-checking testbench (expected values from the reference
   interpreter), and a VCD waveform of the RTL simulation.

     dune exec examples/export_rtl.exe
     ls impact_out/   # gcd.v gcd_tb.v gcd.vcd *)

module Suite = Impact_benchmarks.Suite
module Driver = Impact_core.Driver
module Solution = Impact_core.Solution
module Verilog = Impact_rtl.Verilog
module Vcd = Impact_rtl.Vcd
module Interp = Impact_lang.Interp
module Bitvec = Impact_util.Bitvec

let write path contents =
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc contents)

let () =
  let bench = Suite.gcd in
  let program = Suite.program bench in
  let workload = bench.Suite.workload ~seed:17 ~passes:40 in
  let design =
    Driver.synthesize program ~workload ~objective:Solution.Minimize_power
      ~laxity:2.0 ()
  in
  let sol = design.Driver.d_solution in
  (try Unix.mkdir "impact_out" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  (* 1. The synthesized FSMD as Verilog. *)
  write "impact_out/gcd.v" (Verilog.emit program sol.Solution.stg sol.Solution.binding);
  (* 2. A self-checking testbench: expectations come from the interpreter. *)
  let typed =
    Impact_lang.Typecheck.check (Impact_lang.Parser.parse bench.Suite.source)
  in
  let vectors =
    List.filteri (fun i _ -> i < 8) workload
    |> List.map (fun inputs ->
           let out = Interp.run typed ~inputs in
           (inputs, List.map (fun (n, v) -> (n, Bitvec.to_signed v)) out.Interp.results))
  in
  write "impact_out/gcd_tb.v" (Verilog.emit_testbench program ~vectors);
  (* 3. A waveform of the whole workload from the RTL simulator. *)
  let recording, result = Vcd.capture program sol.Solution.stg sol.Solution.binding ~workload in
  write "impact_out/gcd.vcd" (Vcd.render recording);
  Printf.printf
    "wrote impact_out/gcd.v, gcd_tb.v (%d vectors) and gcd.vcd (%d cycles, %d changes)\n"
    (List.length vectors) result.Impact_rtl.Rtl_sim.total_cycles
    (Vcd.change_count recording);
  print_endline "simulate with: iverilog -o tb impact_out/gcd.v impact_out/gcd_tb.v && ./tb"
