(* Figure-13 golden at default options: every benchmark's default sweep
   (Driver.default_options, the CLI's laxities 1.0-3.0, 60 workload passes
   at seed 1) pinned bit for bit, rendered as test_golden.ml renders its
   quick sweeps.  This pins the search trajectory the default runs, the
   flat search.  The eight sweeps take about 10 s, so [dune runtest] leaves
   them out and CI runs them:

     dune exec test/figure13_default.exe

   A change that moves a digest must say so, and why, with the new one. *)

module Suite = Impact_benchmarks.Suite
module Driver = Impact_core.Driver

let golden name expected () =
  let bench = Suite.find name in
  let sw =
    Driver.figure13 (Suite.program bench)
      ~workload:(bench.Suite.workload ~seed:1 ~passes:60)
      ~laxities:[ 1.0; 1.5; 2.0; 2.5; 3.0 ]
  in
  Alcotest.(check string) (name ^ " default sweep digest") expected
    (Golden_render.sweep_digest sw)

let cases =
  [
    ("loops", "7a8cdd27a8e96c1e1397cc96ee0f0be8");
    ("gcd", "fc99192089c11b02d2886453a94ad0e8");
    ("send", "ef27f4affc831f84ed493f92b104acac");
    ("dealer", "bb70b5e7acf860736d50085eef3ef67a");
    ("cordic", "78015017066acd9691369b934a36daee");
    ("paulin", "0cec1cad933cbfb10f78fe133f60b6ad");
    ("atm", "e0e9699687f29d869e8eaddcdaa79c38");
    ("bresenham", "81ee5446f689330155d3f17780c3e647");
  ]

let () =
  Alcotest.run "impact_figure13_default"
    [
      ( "figure13-default",
        List.map
          (fun (name, expected) -> Alcotest.test_case name `Slow (golden name expected))
          cases );
    ]
