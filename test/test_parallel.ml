(* The evaluation engine: the Domain worker pool, and the determinism
   guarantee that a pooled / cached search reproduces the sequential one
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

let test_env_override () =
  Unix.putenv "IMPACT_JOBS" "7";
  let n = Parallel.num_domains () in
  Unix.putenv "IMPACT_JOBS" "not-a-number";
  let fallback = Parallel.num_domains () in
  Unix.putenv "IMPACT_JOBS" "";
  check_int "IMPACT_JOBS honoured" 7 n;
  check_bool "garbage ignored" true (fallback >= 1)

let test_map_qcheck =
  QCheck.Test.make ~count:50 ~name:"Parallel.map = List.map"
    QCheck.(pair (list small_int) (int_range 1 6))
    (fun (xs, jobs) ->
      Parallel.with_pool ~jobs (fun pool ->
          Parallel.map pool (fun x -> (2 * x) - 1) xs
          = List.map (fun x -> (2 * x) - 1) xs))

(* --- Parallel.map_stealing -------------------------------------------------- *)

let test_steal_basic () =
  Parallel.with_pool ~jobs:4 (fun pool ->
      let xs = List.init 100 Fun.id in
      let rs, steals = Parallel.map_stealing pool (fun x -> x * x) xs in
      check_bool "order and values" true (rs = List.map (fun x -> x * x) xs);
      check_bool "steal count is non-negative" true (steals >= 0);
      let empty, s0 = Parallel.map_stealing pool succ [] in
      check_bool "empty" true (empty = [] && s0 = 0))

(* Adversarially skewed per-item costs: every 17th item spins ~4000x longer
   than the rest, so a static partition strands the cheap tail behind the
   heavy items.  The hard assertion is bit-identity with List.map at every
   chunk size — steal counts depend on runtime timing and are only reported,
   never asserted. *)
let test_steal_skewed () =
  let work n =
    let spins = if n mod 17 = 0 then 200_000 else 50 in
    let acc = ref n in
    for i = 1 to spins do
      acc := ((!acc * 31) + i) land 0xffff
    done;
    !acc
  in
  let xs = List.init 120 Fun.id in
  let seq = List.map work xs in
  Parallel.with_pool ~jobs:4 (fun pool ->
      List.iter
        (fun chunk ->
          let rs, _steals = Parallel.map_stealing pool ~chunk work xs in
          check_bool (Printf.sprintf "chunk %d identical" chunk) true (rs = seq))
        [ 1; 7; 64; 1000 ])

let test_steal_exception () =
  Parallel.with_pool ~jobs:4 (fun pool ->
      let xs = List.init 40 Fun.id in
      match
        Parallel.map_stealing pool ~chunk:3
          (fun x -> if x mod 11 = 5 then raise (Boom x) else x)
          xs
      with
      | _ -> Alcotest.fail "expected exception"
      | exception Boom x ->
        check_int "smallest failing index" 5 x;
        (* the pool survives and later calls still work *)
        let rs, _ = Parallel.map_stealing pool succ [ 1; 2; 3 ] in
        check_bool "pool survives" true (rs = [ 2; 3; 4 ]))

let test_steal_degrades () =
  let pool = Parallel.create ~jobs:4 () in
  Parallel.shutdown pool;
  let rs, steals = Parallel.map_stealing pool succ [ 1; 2 ] in
  check_bool "degrades to sequential" true (rs = [ 2; 3 ] && steals = 0)

let test_steal_qcheck =
  QCheck.Test.make ~count:40 ~name:"Parallel.map_stealing = List.map"
    QCheck.(triple (list small_int) (int_range 1 6) (int_range 1 9))
    (fun (xs, jobs, chunk) ->
      Parallel.with_pool ~jobs (fun pool ->
          fst (Parallel.map_stealing pool ~chunk (fun x -> (3 * x) + 1) xs)
          = List.map (fun x -> (3 * x) + 1) xs))

(* --- Search determinism ---------------------------------------------------- *)

let moves_of d = List.map Moves.describe d.Driver.d_search.Search.moves_applied

let design_fingerprint d =
  ( d.Driver.d_solution.Solution.cost,
    d.Driver.d_solution.Solution.area,
    moves_of d,
    d.Driver.d_search.Search.candidates_evaluated )

(* The pool only does work under the speculative probe engine ([probes = 4]);
   the default flat search ignores it (test_parallel_sweep's "flat" group), so
   these runs name the engine they compare. *)
let synth bench ~jobs ~objective ~seed =
  let prog = Suite.program bench in
  let workload = bench.Suite.workload ~seed:17 ~passes:25 in
  let options =
    {
      Driver.default_options with
      depth = 3;
      max_candidates = 16;
      max_iterations = 8;
      probes = 4;
      seed;
      jobs;
    }
  in
  Driver.synthesize ~options prog ~workload ~objective ~laxity:2.0 ()

let check_parallel_matches_sequential bench objective =
  let seq = synth bench ~jobs:1 ~objective ~seed:5 in
  let par = synth bench ~jobs:4 ~objective ~seed:5 in
  Alcotest.(check (float 0.)) "cost" seq.Driver.d_solution.Solution.cost
    par.Driver.d_solution.Solution.cost;
  Alcotest.(check (list string)) "move sequence" (moves_of seq) (moves_of par);
  check_int "candidates evaluated"
    seq.Driver.d_search.Search.candidates_evaluated
    par.Driver.d_search.Search.candidates_evaluated

let test_search_deterministic_gcd () =
  check_parallel_matches_sequential Suite.gcd Solution.Minimize_power

let test_search_deterministic_dealer () =
  check_parallel_matches_sequential Suite.dealer Solution.Minimize_area

let test_search_seed_property =
  QCheck.Test.make ~count:4 ~name:"pooled search = sequential search (any seed)"
    QCheck.(int_range 1 1000)
    (fun seed ->
      let seq = synth Suite.gcd ~jobs:1 ~objective:Solution.Minimize_power ~seed in
      let par = synth Suite.gcd ~jobs:4 ~objective:Solution.Minimize_power ~seed in
      design_fingerprint seq = design_fingerprint par)

(* --- Speculative multi-pivot determinism ------------------------------------ *)

(* The full stats-relevant trajectory: final solution, accepted move log,
   and every counter that is defined to be a deterministic function of the
   seed (steals and busy fraction are timing diagnostics and excluded). *)
let trajectory_fingerprint d =
  let s = d.Driver.d_search in
  ( ( d.Driver.d_solution.Solution.cost,
      d.Driver.d_solution.Solution.area,
      d.Driver.d_solution.Solution.enc,
      d.Driver.d_solution.Solution.vdd ),
    moves_of d,
    ( s.Search.iterations,
      s.Search.sequences_applied,
      s.Search.candidates_evaluated,
      s.Search.probes_launched,
      s.Search.probes_won ) )

let synth_speculative bench ~jobs ~seed =
  let prog = Suite.program bench in
  let workload = bench.Suite.workload ~seed:9 ~passes:15 in
  let options =
    {
      Driver.default_options with
      depth = 2;
      max_candidates = 10;
      max_iterations = 4;
      probes = 4;
      seed;
      jobs;
    }
  in
  Driver.synthesize ~options prog ~workload ~objective:Solution.Minimize_power
    ~laxity:2.0 ()

let test_speculative_deterministic bench () =
  let d1 = synth_speculative bench ~jobs:1 ~seed:7 in
  let d2 = synth_speculative bench ~jobs:2 ~seed:7 in
  let d4 = synth_speculative bench ~jobs:4 ~seed:7 in
  let f1 = trajectory_fingerprint d1 in
  check_bool "--jobs 2 = --jobs 1" true (trajectory_fingerprint d2 = f1);
  check_bool "--jobs 4 = --jobs 1" true (trajectory_fingerprint d4 = f1);
  List.iter
    (fun d ->
      let s = d.Driver.d_search in
      check_int "probes per iteration" (4 * s.Search.iterations)
        s.Search.probes_launched;
      check_int "every accepted merge is a probe win" s.Search.sequences_applied
        s.Search.probes_won;
      check_bool "busy fraction in range" true
        (s.Search.domain_busy_fraction >= 0.
        && s.Search.domain_busy_fraction <= 1.))
    [ d1; d2; d4 ]

let test_speculative_seed_property =
  QCheck.Test.make ~count:3
    ~name:"speculative pooled search = speculative sequential search (any seed)"
    QCheck.(int_range 1 1000)
    (fun seed ->
      let seq = synth_speculative Suite.gcd ~jobs:1 ~seed in
      let par = synth_speculative Suite.gcd ~jobs:4 ~seed in
      trajectory_fingerprint seq = trajectory_fingerprint par)

(* Sharing one cache across synthesize calls: the first call starts from an
   empty cache and must match a fresh-cache run exactly; later calls reuse
   its entries (every cached build is a genuinely evaluated solution, but
   the trajectory may visit relabeled-isomorphic bindings, so only the
   first call is compared bit-for-bit).  Run under both search engines. *)
let test_shared_cache_consistent ~probes () =
  let bench = Suite.gcd in
  let prog = Suite.program bench in
  let workload = bench.Suite.workload ~seed:17 ~passes:25 in
  let options =
    {
      Driver.default_options with
      depth = 3;
      max_candidates = 16;
      max_iterations = 8;
      probes;
    }
  in
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
          Alcotest.test_case "IMPACT_JOBS" `Quick test_env_override;
          QCheck_alcotest.to_alcotest test_map_qcheck;
        ] );
      ( "stealing",
        [
          Alcotest.test_case "map_stealing basics" `Quick test_steal_basic;
          Alcotest.test_case "skewed costs" `Quick test_steal_skewed;
          Alcotest.test_case "exception propagates" `Quick test_steal_exception;
          Alcotest.test_case "shutdown degrades" `Quick test_steal_degrades;
          QCheck_alcotest.to_alcotest test_steal_qcheck;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "gcd pooled = sequential" `Quick
            test_search_deterministic_gcd;
          Alcotest.test_case "dealer pooled = sequential" `Quick
            test_search_deterministic_dealer;
          QCheck_alcotest.to_alcotest test_search_seed_property;
          Alcotest.test_case "shared cache consistent" `Quick
            (test_shared_cache_consistent ~probes:4);
          Alcotest.test_case "shared cache consistent (flat)" `Quick
            (test_shared_cache_consistent ~probes:1);
        ] );
      ( "speculative",
        List.map
          (fun b ->
            Alcotest.test_case
              (b.Suite.bench_name ^ " --jobs 1/2/4 identical")
              `Quick
              (test_speculative_deterministic b))
          Suite.all
        @ [ QCheck_alcotest.to_alcotest test_speculative_seed_property ] );
    ]
