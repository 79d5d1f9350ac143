let close = Alcotest.float 1e-9
let q3 = Alcotest.(triple (float 1e-9) (float 1e-9) (float 1e-9))

let test_median () =
  Alcotest.check close "odd" 3. (Stats.median [ 5.; 1.; 3. ]);
  Alcotest.check close "even" 2.5 (Stats.median [ 4.; 1.; 3.; 2. ])

(* Reference values from Python's statistics.quantiles(xs, n=4). *)
let test_quartiles () =
  Alcotest.check q3 "1..10" (2.75, 5.5, 8.25)
    (Stats.quartiles (List.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.check q3 "two" (0.75, 1.5, 2.25) (Stats.quartiles [ 2.; 1. ]);
  Alcotest.check q3 "five" (1.5, 3., 4.5) (Stats.quartiles [ 1.; 2.; 3.; 4.; 5. ])

let test_percentile () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.check close "p90 of 1..100" 90. (Stats.percentile xs 90.);
  Alcotest.check close "p50 of 1..100" 50. (Stats.percentile xs 50.);
  Alcotest.check close "p100" 100. (Stats.percentile xs 100.)

let test_tail () =
  let opt = Alcotest.(option (float 1e-9)) in
  Alcotest.check opt "1000 samples" (Some 99.) (Stats.tail_percentile 1000);
  Alcotest.check opt "100 samples" (Some 90.) (Stats.tail_percentile 100);
  Alcotest.check opt "99 samples" (Some 75.) (Stats.tail_percentile 99);
  Alcotest.check opt "20 samples" (Some 50.) (Stats.tail_percentile 20);
  Alcotest.check opt "19 samples" None (Stats.tail_percentile 19);
  Alcotest.check opt "10000 samples" (Some 99.9) (Stats.tail_percentile 10000)

let test_geomean () =
  Alcotest.check close "2,8" 4. (Stats.geomean [ 2.; 8. ]);
  Alcotest.check close "single" 3. (Stats.geomean [ 3. ]);
  Alcotest.check_raises "non-positive" (Invalid_argument "geomean: non-positive sample")
    (fun () -> ignore (Stats.geomean [ 1.; 0. ]))

let test_window_median () =
  let samples = [ (0., 9.); (1., 1.); (2., 2.); (3., 3.); (4., 4.); (10., 8.) ] in
  let wm = Stats.window_median ~k:3 samples in
  Alcotest.check close "enough inside" 2. (wm ~start:0.5 ~stop:3.5);
  Alcotest.check close "nearest three around a short interval" 3. (wm ~start:3. ~stop:3.);
  Alcotest.check close "nearest three past the end" 4. (wm ~start:7. ~stop:8.);
  Alcotest.check close "fewer samples than k" 3.5 (Stats.window_median ~k:9 ~start:0. ~stop:0. samples)

let test_self_time () =
  let self = Stats.self_time ~start:0. ~stop:10. in
  Alcotest.check close "leaf" 10. (self []);
  Alcotest.check close "disjoint" 7. (self [ (1., 2.); (5., 7.) ]);
  Alcotest.check close "overlapping children counted once" 6. (self [ (1., 4.); (2., 5.) ]);
  Alcotest.check close "child past the parent is clipped" 8. (self [ (8., 12.) ]);
  Alcotest.check close "nested child inside child" 7. (self [ (1., 4.); (2., 3.) ]);
  Alcotest.check close "fully covered" 0. (self [ (0., 6.); (5., 10.) ])

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "quartiles" `Quick test_quartiles;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "tail percentile" `Quick test_tail;
          Alcotest.test_case "geomean" `Quick test_geomean;
          Alcotest.test_case "window median" `Quick test_window_median;
          Alcotest.test_case "self time" `Quick test_self_time;
        ] );
    ]
