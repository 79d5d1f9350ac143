(* Delta re-pricing: footprint-repriced estimates must match full
   re-estimation to floating-point noise on random move walks, a
   rescheduling move that keeps the schedule's shape must be delta-priced
   to the full ledger bit for bit, a delta-priced search must reproduce the
   full-estimation search bit-for-bit, and the sharded memo tables must
   neither lose nor duplicate entries under domain contention. *)

module Sim = Impact_sim.Sim
module Scheduler = Impact_sched.Scheduler
module Stg = Impact_sched.Stg
module Enc = Impact_sched.Enc
module Binding = Impact_rtl.Binding
module Estimate = Impact_power.Estimate
module Traces = Impact_power.Traces
module Breakdown = Impact_power.Breakdown
module Module_library = Impact_modlib.Module_library
module Rng = Impact_util.Rng
module Shardtbl = Impact_util.Shardtbl
module Suite = Impact_benchmarks.Suite
module Solution = Impact_core.Solution
module Moves = Impact_core.Moves
module Search = Impact_core.Search
module Driver = Impact_core.Driver

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let make_env bench objective laxity =
  let prog = Suite.program bench in
  let workload = bench.Suite.workload ~seed:41 ~passes:25 in
  let run = Sim.simulate prog ~workload in
  let min_stg =
    Scheduler.min_enc_schedule Scheduler.Wavesched ~clock_ns:15. prog
      Module_library.default
  in
  let enc_min = Enc.analytic min_stg run.Sim.profile in
  {
    Solution.program = prog;
    library = Module_library.default;
    sched_config = Scheduler.config_of_style Scheduler.Wavesched ~clock_ns:15.;
    est_ctx = Estimate.create_ctx run;
    enc_budget = laxity *. enc_min;
    objective;
    area_ref =
      (let b = Binding.parallel prog.Impact_cdfg.Graph.graph Module_library.default in
       Binding.fu_area b +. Binding.reg_area b);
  }

let rel_close a b =
  (a = b)
  || abs_float (a -. b) <= 1e-9 *. Float.max 1. (Float.max (abs_float a) (abs_float b))

let check_est_close name (a : Estimate.t) (b : Estimate.t) =
  let pairs =
    [
      ("power", a.Estimate.est_power, b.Estimate.est_power);
      ("p_fu", a.est_breakdown.Breakdown.p_fu, b.est_breakdown.Breakdown.p_fu);
      ("p_reg", a.est_breakdown.Breakdown.p_reg, b.est_breakdown.Breakdown.p_reg);
      ("p_mux", a.est_breakdown.Breakdown.p_mux, b.est_breakdown.Breakdown.p_mux);
      ("p_ctrl", a.est_breakdown.Breakdown.p_ctrl, b.est_breakdown.Breakdown.p_ctrl);
      ("p_clock", a.est_breakdown.Breakdown.p_clock, b.est_breakdown.Breakdown.p_clock);
      ("p_wire", a.est_breakdown.Breakdown.p_wire, b.est_breakdown.Breakdown.p_wire);
    ]
  in
  List.iter
    (fun (field, x, y) ->
      if not (rel_close x y) then
        Alcotest.failf "%s: %s diverged: delta %.17g vs full %.17g" name field x y)
    pairs

(* Every term of a ledger, bit for bit: a carried term read from the wrong
   slot can total within 1e-9 but cannot match here. *)
let check_terms_identical name lg full =
  let bits l = List.map (fun (label, v) -> (label, Int64.bits_of_float v)) (Estimate.ledger_terms l) in
  if bits lg <> bits full then Alcotest.failf "%s: ledger terms differ from the full estimate" name

(* Random move walk: apply moves with delta re-pricing enabled and compare
   every feasible solution's estimate, and its ledger's terms, against a
   from-scratch estimate of the same (schedule, datapath, supply). *)
let walk_and_check env ~seed ~steps =
  let rng = Rng.create ~seed in
  let metrics = Solution.create_metrics () in
  let sol = ref (Solution.initial ~metrics env) in
  let checked = ref 0 in
  (try
     for step = 1 to steps do
       let cands = Moves.candidates env !sol ~rng ~max:12 in
       let next =
         List.find_map (fun mv -> Moves.apply ~metrics ~delta:true env !sol mv) cands
       in
       match next with
       | None -> raise Exit
       | Some s ->
         if s.Solution.cost < infinity then begin
           let full, full_lg =
             Estimate.estimate_ledger env.Solution.est_ctx ~stg:s.Solution.stg
               ~dp:s.Solution.dp ~vdd:s.Solution.vdd ()
           in
           let name = Printf.sprintf "step %d" step in
           check_est_close name (Solution.est s) full;
           (match Solution.ledger s with
           | Some lg -> check_terms_identical name lg full_lg
           | None -> Alcotest.failf "%s: feasible solution without a ledger" name);
           incr checked
         end;
         sol := s
     done
   with Exit -> ());
  let _, _, _, delta_repriced = Solution.metrics_counts metrics in
  (!checked, delta_repriced)

let test_reprice_matches_full () =
  let total_checked = ref 0 and total_delta = ref 0 in
  List.iter
    (fun (bench, objective, seed) ->
      let env = make_env bench objective 2.5 in
      let checked, delta = walk_and_check env ~seed ~steps:10 in
      total_checked := !total_checked + checked;
      total_delta := !total_delta + delta)
    [
      (Suite.gcd, Solution.Minimize_power, 3);
      (Suite.gcd, Solution.Minimize_area, 7);
      (Suite.dealer, Solution.Minimize_power, 11);
      (Suite.dealer, Solution.Minimize_area, 13);
    ];
  check_bool "walks priced feasible solutions" true (!total_checked > 0);
  check_bool "delta re-pricing exercised" true (!total_delta > 0)

let test_reprice_property =
  QCheck.Test.make ~count:6 ~name:"reprice = full estimate (any seed)"
    QCheck.(int_range 1 1000)
    (fun seed ->
      let env = make_env Suite.gcd Solution.Minimize_power 2.0 in
      let checked, _ = walk_and_check env ~seed ~steps:8 in
      checked > 0)

(* A Heavy move whose reschedule moves firing times but keeps the shape
   ({!Stg.key}) is delta-priced against its predecessor's ledger: every
   term equals the full estimate's bit for bit, and the critical path is
   the new schedule's own, not one carried or served from a memo entry. *)
let test_same_shape_reschedule () =
  let found =
    List.find_map
      (fun (bench, seed) ->
        let env = make_env bench Solution.Minimize_power 2.5 in
        let rng = Rng.create ~seed in
        let rec walk sol steps =
          if steps = 0 then None
          else
            let cands = Moves.candidates env sol ~rng ~max:40 in
            let retimed mv =
              if Moves.reprices env sol mv then None
              else
                let metrics = Solution.create_metrics () in
                match Moves.apply ~metrics env sol mv with
                | Some s
                  when s.Solution.cost < infinity
                       && Stg.key s.Solution.stg = Stg.key sol.Solution.stg
                       && Stg.critical_path_ns s.Solution.stg
                          <> Stg.critical_path_ns sol.Solution.stg ->
                  Some (env, metrics, s)
                | _ -> None
            in
            match List.find_map retimed cands with
            | Some _ as hit -> hit
            | None -> (
              match List.filter_map (Moves.apply env sol) cands with
              | [] -> None
              | succs -> walk (List.nth succs (Rng.int rng (List.length succs))) (steps - 1))
        in
        walk (Solution.initial env) 4)
      [ (Suite.paulin, 3); (Suite.cordic, 5); (Suite.gcd, 7); (Suite.dealer, 11) ]
  in
  match found with
  | None -> Alcotest.fail "no same-shape reschedule with a new critical path found"
  | Some (env, metrics, s) ->
    let _, _, _, delta = Solution.metrics_counts metrics in
    check_int "delta-repriced" 1 delta;
    let _, full_lg =
      Estimate.estimate_ledger env.Solution.est_ctx ~stg:s.Solution.stg ~dp:s.Solution.dp ()
    in
    let lg = Option.get (Solution.ledger s) in
    check_terms_identical "same-shape reschedule" lg full_lg;
    check_bool "critical path is the new schedule's" true
      (List.assoc "critical-ns" (Estimate.ledger_terms lg)
      = Stg.critical_path_ns s.Solution.stg)

(* A delta-priced search must be indistinguishable from the full-estimation
   search: same winner, same move trajectory, same counters. *)
(* The nominal estimates pricing computes along a search's trajectory,
   replayed move by move from the initial design with the search's pricing. *)
let replay_estimates ?cache env ~delta initial moves =
  let metrics = Solution.create_metrics () in
  ignore
    (List.fold_left
       (fun cur mv -> Option.value (Moves.apply ?cache ~metrics ~delta env cur mv) ~default:cur)
       initial moves);
  Solution.metrics_estimated metrics

let search_fingerprint env ~delta =
  let rng = Rng.create ~seed:5 in
  let initial = Solution.initial env in
  let sol, stats =
    Search.optimize env initial ~rng ~depth:3 ~max_candidates:16 ~max_iterations:8
      ~delta ()
  in
  ( (sol.Solution.cost,
     sol.Solution.area,
     sol.Solution.vdd,
     List.map Moves.describe stats.Search.moves_applied,
     stats.Search.candidates_evaluated),
    stats.Search.delta_repriced,
    replay_estimates env ~delta initial stats.Search.moves_applied )

let test_delta_search_identical () =
  List.iter
    (fun objective ->
      let (c1, a1, v1, m1, e1), d1, n1 =
        search_fingerprint (make_env Suite.gcd objective 2.0) ~delta:true
      in
      let (c2, a2, v2, m2, e2), d2, n2 =
        search_fingerprint (make_env Suite.gcd objective 2.0) ~delta:false
      in
      check_bool "cost identical" true (c1 = c2);
      check_bool "area identical" true (a1 = a2);
      check_bool "vdd identical" true (v1 = v2);
      Alcotest.(check (list string)) "moves identical" m2 m1;
      check_int "candidates identical" e2 e1;
      (match objective with
      | Solution.Minimize_power -> check_bool "delta path exercised" true (d1 > 0)
      | Solution.Minimize_area ->
        (* The area cost never reads power, so nothing is priced. *)
        check_int "area search prices no estimate" 0 n1;
        check_int "area search prices no estimate (full)" 0 n2);
      check_int "full path never delta-prices" 0 d2)
    [ Solution.Minimize_power; Solution.Minimize_area ]

(* --- Deferred pricing ----------------------------------------------------------

   An area search never computes a power estimate; the final design's
   estimate is computed on first read, and equals a from-scratch estimate
   at its supply bit for bit. *)

let ledger_bits lg =
  List.map (fun (label, v) -> (label, Int64.bits_of_float v)) (Estimate.ledger_terms lg)

(* An area search on a signature cache (a fresh one by default), with the
   nominal estimates its pricing computed: counted by [Solution.metrics]
   along its trajectory, and by the cache entries priced across the whole
   search (every candidate it evaluated has one). *)
let area_search ?(cache = Solution.create_cache ()) env =
  let metrics = Solution.create_metrics () in
  let initial = Solution.initial ~cache ~metrics env in
  let sol, stats =
    Search.optimize env initial ~rng:(Rng.create ~seed:9) ~depth:3 ~max_candidates:16
      ~max_iterations:6 ~cache ()
  in
  let along = replay_estimates ~cache env ~delta:true initial stats.Search.moves_applied in
  (sol, Solution.metrics_estimated metrics + along, Solution.cache_priced cache)

let test_area_search_defers () =
  List.iter
    (fun bench ->
      let env = make_env bench Solution.Minimize_area 2.0 in
      let sol, estimated, priced = area_search env in
      let name = bench.Suite.bench_name in
      check_int (name ^ ": nominal estimates along an area search") 0 estimated;
      check_int (name ^ ": cache entries priced by an area search") 0 priced;
      check_bool (name ^ ": final design feasible") true (sol.Solution.cost < infinity);
      check_bool (name ^ ": no ledger priced before a read") true
        (Solution.priced_ledger sol = None);
      let full, full_lg =
        Estimate.estimate_ledger env.Solution.est_ctx ~stg:sol.Solution.stg
          ~dp:sol.Solution.dp ~vdd:sol.Solution.vdd ()
      in
      let forced = Solution.est sol in
      check_bool (name ^ ": forced est_power bits") true
        (Int64.bits_of_float forced.Estimate.est_power
        = Int64.bits_of_float full.Estimate.est_power);
      check_bool (name ^ ": forced estimate equals the full one") true (forced = full);
      (match Solution.ledger sol with
      | Some lg ->
        check_bool (name ^ ": forced ledger terms") true (ledger_bits lg = ledger_bits full_lg)
      | None -> Alcotest.failf "%s: feasible design without a ledger" name);
      check_bool (name ^ ": the forced ledger is kept") true
        (Solution.priced_ledger sol <> None))
    [ Suite.gcd; Suite.paulin; Suite.cordic ]

(* A power search that hits signature-cache entries an area search filled
   (their estimate slots empty or forced) finds the design a fresh cache
   finds. *)
let test_power_after_area_cache () =
  let power_design ?cache env =
    let initial = Solution.initial ?cache env in
    let sol, stats =
      Search.optimize env initial ~rng:(Rng.create ~seed:4) ~depth:3 ~max_candidates:16
        ~max_iterations:6 ?cache ()
    in
    ( Printf.sprintf "%h|%h|%h|%h" sol.Solution.cost sol.Solution.area sol.Solution.enc
        sol.Solution.vdd,
      Stg.signature sol.Solution.stg,
      List.map Moves.describe stats.Search.moves_applied,
      Option.map ledger_bits (Solution.ledger sol) )
  in
  List.iter
    (fun bench ->
      let area_env = make_env bench Solution.Minimize_area 2.0 in
      let power_env = { area_env with Solution.objective = Solution.Minimize_power } in
      let shared = Solution.create_cache () in
      let area_sol, _, _ = area_search ~cache:shared area_env in
      (* Force one entry's estimate, as a report of the area design would. *)
      ignore (Solution.est area_sol);
      check_int (bench.Suite.bench_name ^ ": one cache entry priced by the read") 1
        (Solution.cache_priced shared);
      check_bool (bench.Suite.bench_name ^ ": the area search filled the cache") true
        (Solution.cache_entries shared > 0);
      let reused = power_design ~cache:shared power_env in
      let fresh = power_design ~cache:(Solution.create_cache ()) power_env in
      check_bool (bench.Suite.bench_name ^ ": same power design") true (reused = fresh))
    [ Suite.gcd; Suite.paulin ]

(* --- Sharded memo tables under contention ---------------------------------- *)

let test_shardtbl_stress () =
  let tbl = Shardtbl.create ~equal:Int.equal 64 in
  let n_keys = 500 and n_domains = 4 in
  let value_of k = (k * 2654435761) land 0xFFFF in
  let worker d =
    Domain.spawn (fun () ->
        let winners = Array.make n_keys 0 in
        (* Each domain visits the keys in a different order and races
           its lookup and publish against the other domains. *)
        for i = 0 to n_keys - 1 do
          let k = (i + (d * 137)) mod n_keys in
          winners.(k) <-
            (match Shardtbl.find_opt tbl k with
            | Some v -> v
            | None -> Shardtbl.add_if_absent tbl k (value_of k))
        done;
        winners)
  in
  let results = List.map Domain.join (List.init n_domains worker) in
  check_int "no entry lost or duplicated" n_keys (Shardtbl.length tbl);
  for k = 0 to n_keys - 1 do
    let published = Shardtbl.find_opt tbl k in
    if published <> Some (value_of k) then Alcotest.failf "key %d corrupted" k;
    List.iter
      (fun winners ->
        if winners.(k) <> value_of k then
          Alcotest.failf "key %d: domain saw a different winner" k)
      results
  done;
  (* Distinct values per domain: add_if_absent publishes exactly one winner
     and every domain agrees on it. *)
  let tbl2 = Shardtbl.create ~equal:Int.equal 16 in
  let racers =
    List.init n_domains (fun d ->
        Domain.spawn (fun () ->
            Array.init 100 (fun k -> Shardtbl.add_if_absent tbl2 k (1000 + (d * 100) + k))))
  in
  let winners = List.map Domain.join racers in
  check_int "one entry per key" 100 (Shardtbl.length tbl2);
  for k = 0 to 99 do
    let w = Shardtbl.find_opt tbl2 k in
    List.iter
      (fun arr ->
        if Some arr.(k) <> w then Alcotest.failf "add_if_absent winner disagrees at %d" k)
      winners
  done

(* Two node lists that agree on their first ten elements share a
   [Hashtbl.hash], which reads only ten meaningful values.  The tables must
   keep them apart by their typed equality. *)
let test_shardtbl_hash_collision () =
  let k1 = List.init 11 Fun.id and k2 = List.init 10 Fun.id @ [ 11 ] in
  check_bool "keys share a hash" true (Shardtbl.hash k1 = Shardtbl.hash k2);
  let tbl = Shardtbl.create ~equal:(List.equal Int.equal) 16 in
  ignore (Shardtbl.add_if_absent tbl k1 "one");
  check_bool "colliding key absent" true (Shardtbl.find_opt tbl k2 = None);
  ignore (Shardtbl.add_if_absent tbl k2 "two");
  check_int "two entries" 2 (Shardtbl.length tbl);
  check_bool "each key finds its own" true
    (Shardtbl.find_opt tbl k1 = Some "one" && Shardtbl.find_opt tbl k2 = Some "two")

let test_stg_memo_shared_across_domains () =
  (* The estimator's per-schedule memo: hammer one context from several
     domains pricing the same schedules and check the memoised values are
     consistent (the search's determinism tests already cover end-to-end
     equality; this isolates the stg-terms table). *)
  let env = make_env Suite.gcd Solution.Minimize_power 2.0 in
  let sol = Solution.initial env in
  let expected = Estimate.stg_enc env.Solution.est_ctx sol.Solution.stg in
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            List.init 50 (fun _ -> Estimate.stg_enc env.Solution.est_ctx sol.Solution.stg)))
  in
  List.iter
    (fun d ->
      List.iter
        (fun v -> check_bool "memoised enc consistent" true (v = expected))
        (Domain.join d))
    domains

let () =
  Alcotest.run "impact_delta"
    [
      ( "reprice",
        [
          Alcotest.test_case "reprice = full on random walks" `Quick
            test_reprice_matches_full;
          QCheck_alcotest.to_alcotest test_reprice_property;
          Alcotest.test_case "delta search = full search" `Quick
            test_delta_search_identical;
          Alcotest.test_case "same-shape reschedule is delta-priced" `Quick
            test_same_shape_reschedule;
        ] );
      ( "deferred",
        [
          Alcotest.test_case "area search prices no estimate" `Quick test_area_search_defers;
          Alcotest.test_case "power search on an area-filled cache" `Quick
            test_power_after_area_cache;
        ] );
      ( "shardtbl",
        [
          Alcotest.test_case "multi-domain stress" `Quick test_shardtbl_stress;
          Alcotest.test_case "colliding hashes, typed equality" `Quick
            test_shardtbl_hash_collision;
          Alcotest.test_case "stg memo across domains" `Quick
            test_stg_memo_shared_across_domains;
        ] );
    ]
