(* Figure-13 golden: every benchmark's quick sweep pinned bit for bit.

   One MD5 per benchmark over the %h-rendered sweep (base power and area,
   every point's normalised A-Power/I-Power/I-Area and supplies) and, for
   each of its designs, the cost, area, ENC, Vdd, STG signature and the
   accepted-move list.  A change that moves any of these must say so, and
   why, with the new digest.  Quick options (test_core's), laxities 1.0 and
   2.0, 10 workload passes at seed 1. *)

module Suite = Impact_benchmarks.Suite
module Stg = Impact_sched.Stg
module Solution = Impact_core.Solution
module Moves = Impact_core.Moves
module Search = Impact_core.Search
module Driver = Impact_core.Driver

let quick_options =
  { Driver.default_options with depth = 3; max_candidates = 20; max_iterations = 10 }

let render_design buf (d : Driver.design) =
  let s = d.Driver.d_solution in
  Printf.bprintf buf "design cost=%h area=%h enc=%h vdd=%h\nsig=%s\n" s.Solution.cost
    s.Solution.area s.Solution.enc s.Solution.vdd (Stg.signature s.Solution.stg);
  List.iter
    (fun m -> Printf.bprintf buf "move %s\n" (Moves.describe m))
    d.Driver.d_search.Search.moves_applied

let render (sw : Driver.sweep) =
  let buf = Buffer.create 4096 in
  Printf.bprintf buf "base power=%h area=%h\n" sw.Driver.sw_base_power sw.Driver.sw_base_area;
  List.iter
    (fun p ->
      Printf.bprintf buf "point %h a_power=%h i_power=%h i_area=%h a_vdd=%h i_vdd=%h\n"
        p.Driver.sp_laxity p.Driver.sp_a_power p.Driver.sp_i_power p.Driver.sp_i_area
        p.Driver.sp_a_vdd p.Driver.sp_i_vdd;
      render_design buf p.Driver.sp_area_design;
      render_design buf p.Driver.sp_power_design)
    sw.Driver.sw_points;
  Buffer.contents buf

let golden name expected () =
  let bench = Suite.find name in
  let prog = Suite.program bench in
  let workload = bench.Suite.workload ~seed:1 ~passes:10 in
  let sweep =
    Driver.figure13 ~options:quick_options prog ~workload ~laxities:[ 1.0; 2.0 ]
  in
  Alcotest.(check string) (name ^ " sweep digest") expected
    (Digest.to_hex (Digest.string (render sweep)))

let cases =
  [
    ("loops", "9b7e6ec945b1cc66262f55483556f16d");
    ("gcd", "77037d4aadcff886e5ea9ca3762bfefa");
    ("send", "da0d54c2046ebeef47721204bcd9ce5c");
    ("dealer", "c3470839f8882d90f7a6a5f6b77dca37");
    ("cordic", "af24db875dc4a90ac6c7025c27424645");
    ("paulin", "9db164cae0568f37ad25d280cd752ca2");
    ("atm", "f739f10685a4561735b056371777d1df");
    ("bresenham", "d6829b5be87056099f01308aa5546f8a");
  ]

let () =
  Alcotest.run "impact_golden"
    [
      ( "figure13",
        List.map
          (fun (name, expected) -> Alcotest.test_case name `Quick (golden name expected))
          cases );
    ]
