(* The evaluation engine: the Domain worker pool, and the guarantee that a
   search sharing a signature cache reproduces a fresh-cache search
   bit-for-bit for a fixed seed. *)

module Parallel = Impact_util.Parallel
module Suite = Impact_benchmarks.Suite
module Solution = Impact_core.Solution
module Moves = Impact_core.Moves
module Search = Impact_core.Search
module Driver = Impact_core.Driver

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Parallel.map ---------------------------------------------------------- *)

let test_map_basic () =
  Parallel.with_pool ~jobs:4 (fun pool ->
      let xs = List.init 100 Fun.id in
      check_bool "order and values" true
        (Parallel.map pool (fun x -> x * x) xs = List.map (fun x -> x * x) xs))

let test_map_empty () =
  Parallel.with_pool ~jobs:4 (fun pool ->
      check_int "empty" 0 (List.length (Parallel.map pool (fun x -> x) [])))

let test_map_singleton () =
  Parallel.with_pool ~jobs:4 (fun pool ->
      check_bool "singleton" true (Parallel.map pool succ [ 41 ] = [ 42 ]))

exception Boom of int

let test_map_exception () =
  Parallel.with_pool ~jobs:4 (fun pool ->
      let xs = List.init 20 Fun.id in
      (* All failures surface as the smallest-index one, regardless of which
         domain hits which element first. *)
      match Parallel.map pool (fun x -> if x mod 7 = 3 then raise (Boom x) else x) xs with
      | _ -> Alcotest.fail "expected exception"
      | exception Boom x -> check_int "smallest failing index" 3 x)

let test_map_exception_pool_survives () =
  Parallel.with_pool ~jobs:4 (fun pool ->
      (try ignore (Parallel.map pool (fun _ -> failwith "boom") [ 1; 2; 3 ])
       with Failure _ -> ());
      check_bool "pool still works" true
        (Parallel.map pool succ [ 1; 2; 3 ] = [ 2; 3; 4 ]))

let test_map_reuse () =
  Parallel.with_pool ~jobs:3 (fun pool ->
      for i = 1 to 5 do
        let xs = List.init (10 * i) Fun.id in
        check_bool
          (Printf.sprintf "round %d" i)
          true
          (Parallel.map pool (fun x -> x + i) xs = List.map (fun x -> x + i) xs)
      done)

let test_map_after_shutdown () =
  let pool = Parallel.create ~jobs:4 () in
  Parallel.shutdown pool;
  Parallel.shutdown pool;
  (* idempotent *)
  check_bool "degrades to sequential" true (Parallel.map pool succ [ 1; 2 ] = [ 2; 3 ])

let test_jobs_clamp () =
  Parallel.with_pool ~jobs:0 (fun pool -> check_int "clamped to 1" 1 (Parallel.jobs pool));
  Parallel.with_pool ~jobs:4 (fun pool -> check_int "as given" 4 (Parallel.jobs pool));
  Parallel.with_pool ~jobs:2 (fun pool ->
      check_bool "physical parallelism is clamped" true
        (Parallel.physical_parallelism pool >= 1
        && Parallel.physical_parallelism pool <= 2))

let test_map_qcheck =
  QCheck.Test.make ~count:50 ~name:"Parallel.map = List.map"
    QCheck.(pair (list small_int) (int_range 1 6))
    (fun (xs, jobs) ->
      Parallel.with_pool ~jobs (fun pool ->
          Parallel.map pool (fun x -> (2 * x) - 1) xs
          = List.map (fun x -> (2 * x) - 1) xs))

(* --- A shared signature cache ----------------------------------------------- *)

let moves_of d = List.map Moves.describe d.Driver.d_search.Search.moves_applied

let design_fingerprint d =
  ( d.Driver.d_solution.Solution.cost,
    d.Driver.d_solution.Solution.area,
    moves_of d,
    d.Driver.d_search.Search.candidates_evaluated )

(* Sharing one cache across synthesize calls: the first call starts from an
   empty cache and must match a fresh-cache run exactly; later calls reuse
   its entries (every cached build is a genuinely evaluated solution, but
   the trajectory may visit relabeled-isomorphic bindings, so only the
   first call is compared bit-for-bit).  Run on a trimmed search and on the
   flat variable-depth search exactly as the default options set it. *)
let trimmed_options =
  { Driver.default_options with depth = 3; max_candidates = 16; max_iterations = 8 }

let test_shared_cache_consistent ~options () =
  let bench = Suite.gcd in
  let prog = Suite.program bench in
  let workload = bench.Suite.workload ~seed:17 ~passes:25 in
  let fresh objective =
    Driver.synthesize ~options prog ~workload ~objective ~laxity:2.0 ()
  in
  let cache = Solution.create_cache () in
  let shared objective =
    Driver.synthesize ~options ~cache prog ~workload ~objective ~laxity:2.0 ()
  in
  let f1 = fresh Solution.Minimize_area in
  let s1 = shared Solution.Minimize_area in
  let s2 = shared Solution.Minimize_power in
  check_bool "first shared run = fresh run" true
    (design_fingerprint f1 = design_fingerprint s1);
  check_bool "cache was populated" true (Solution.cache_entries cache > 0);
  check_bool "second run hit the shared cache" true
    (s2.Driver.d_search.Search.cache_hits > 0);
  check_bool "second run feasible" true
    (Float.is_finite s2.Driver.d_solution.Solution.cost)

let () =
  Alcotest.run "impact_parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map basics" `Quick test_map_basic;
          Alcotest.test_case "map empty" `Quick test_map_empty;
          Alcotest.test_case "map singleton" `Quick test_map_singleton;
          Alcotest.test_case "exception propagates" `Quick test_map_exception;
          Alcotest.test_case "pool survives exception" `Quick
            test_map_exception_pool_survives;
          Alcotest.test_case "pool reuse" `Quick test_map_reuse;
          Alcotest.test_case "shutdown degrades" `Quick test_map_after_shutdown;
          Alcotest.test_case "jobs clamp" `Quick test_jobs_clamp;
          QCheck_alcotest.to_alcotest test_map_qcheck;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "shared cache consistent" `Quick
            (test_shared_cache_consistent ~options:trimmed_options);
          Alcotest.test_case "shared cache consistent (flat)" `Quick
            (test_shared_cache_consistent ~options:Driver.default_options);
        ] );
    ]
