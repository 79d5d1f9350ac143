module Parallel = Impact_util.Parallel
module Fragcache = Impact_sched.Fragcache
module Rng = Impact_util.Rng
module Diagnostic = Impact_util.Diagnostic
module Estimate = Impact_power.Estimate
module Verify = Impact_verify.Verify

type stats = {
  iterations : int;
  sequences_applied : int;
  moves_applied : Moves.move list;
  candidates_evaluated : int;
  cache_hits : int;
  pruned_infeasible : int;
  delta_repriced : int;
  probes_launched : int;  (* speculative depth probes started *)
  probes_won : int;  (* merges that accepted a probe's best prefix *)
  steals : int;  (* work-stealing deque steals (scheduling diagnostic) *)
  domain_busy_fraction : float;
      (* fraction of the parallel phases' domain-seconds spent evaluating *)
  verified_accepts : int;  (* solutions re-verified under IMPACT_VERIFY_EACH *)
  frags_reused : int;  (* STG fragments spliced from the fragment cache *)
  frags_scheduled : int;  (* STG fragments computed and filed this run *)
}

let default_num_probes = 1

let atomic_addf slot x =
  let rec go () =
    let old = Atomic.get slot in
    if not (Atomic.compare_and_set slot old (old +. x)) then go ()
  in
  go ()

(* One probe's result, in coordinator-merge order. *)
type probe_result = {
  pr_anchor_sol : Solution.t;
  pr_anchor_log : Moves.move list;  (* reversed applied log at the anchor *)
  pr_best : Solution.t;
  pr_moves : Moves.move list;  (* best prefix, reversed (newest first) *)
  pr_sols : Solution.t list;  (* solutions of the best prefix, newest first *)
  pr_cache : Solution.cache option;
  pr_ctx : Estimate.ctx;
  pr_busy_s : float;
}

let optimize env start ~rng ~depth ~max_candidates ?(max_iterations = 50)
    ?(filter = fun _ -> true) ?pool ?cache ?(delta = true)
    ?(num_probes = 1) () =
  let metrics = Solution.create_metrics () in
  (* Fragment-cache counters are cumulative over the cache's lifetime (it
     outlives runs: a sweep shares one); the stats report this run's delta. *)
  let frag0 =
    match Option.bind cache Solution.frag_cache with
    | None -> None
    | Some fc -> Some (fc, Fragcache.counters fc)
  in
  (* Verify-each gating: with IMPACT_VERIFY_EACH set, every solution the
     search commits to (the start point and each merged accepted prefix) is
     re-verified by the full cross-layer pass stack; an error fails the run
     loudly instead of letting a miscompiling move corrupt the numbers.
     Losing speculative probes are never verified — the search does not
     stand behind them.  Mirrors the IMPACT_CHECK_LEDGER convention of the
     estimator. *)
  let verify_each = Verify.verify_each_enabled () in
  let verified = ref 0 in
  (* Infeasible intermediates (cost = infinity) are exempt: the search
     traverses them deliberately — they already failed a legality check and
     can never be the final solution. *)
  let verify_accepted sol =
    if verify_each && sol.Solution.cost < infinity then begin
      incr verified;
      let diags = Solution.diagnostics env sol in
      if Diagnostic.has_errors diags then
        failwith
          (Diagnostic.report
             ~header:
               (Printf.sprintf
                  "IMPACT_VERIFY_EACH: accepted solution fails verification \
                   (after %d verified accepts):"
                  (!verified - 1))
             (Diagnostic.errors diags))
    end
  in
  verify_accepted start;
  let pool =
    match pool with Some p when Parallel.jobs p > 1 -> Some p | Some _ | None -> None
  in
  let num_probes = max 1 num_probes in
  let probes_launched = ref 0 and probes_won = ref 0 in
  let steals = ref 0 in
  (* Busy/capacity accounting for [domain_busy_fraction]: each probe
     fan-out contributes its wall time times its domain width to capacity
     and the summed per-probe evaluation time to busy.  With no parallel
     phase at all the fraction is reported as 1.0 (a single domain, always
     busy). *)
  let busy_s = Atomic.make 0. in
  let capacity_s = ref 0. in
  let evaluated = Atomic.make 0 in

  (* --- One SCALP depth probe ------------------------------------------------
     From [anchor], repeatedly apply the best candidate (even with negative
     gain) for up to [depth] steps, tracking the best-cost prefix.  [eval]
     prices one step's candidate batch; the first-strictly-better scan makes
     the chosen step independent of evaluation order. *)
  let depth_probe probe_env anchor ~rng:probe_rng ~eval =
    let cursor = ref anchor in
    let seq = ref [] in
    let seq_sols = ref [] in
    let best_prefix = ref anchor in
    let best_prefix_moves = ref [] in
    let best_prefix_sols = ref [] in
    (try
       for _ = 1 to depth do
         let cands =
           List.filter filter
             (Moves.candidates probe_env !cursor ~rng:probe_rng ~max:max_candidates)
         in
         let results = eval probe_env !cursor cands in
         let best = ref None in
         List.iter2
           (fun move result ->
             match result with
             | None -> ()
             | Some sol ->
               Atomic.incr evaluated;
               (match !best with
               | Some (_, best_sol) when best_sol.Solution.cost <= sol.Solution.cost
                 -> ()
               | _ -> best := Some (move, sol)))
           cands results;
         match !best with
         | None -> raise Exit
         | Some (move, sol) ->
           cursor := sol;
           seq := move :: !seq;
           seq_sols := sol :: !seq_sols;
           if sol.Solution.cost < (!best_prefix).Solution.cost then begin
             best_prefix := sol;
             best_prefix_moves := !seq;
             best_prefix_sols := !seq_sols
           end
       done
     with Exit -> ());
    (!best_prefix, !best_prefix_moves, !best_prefix_sols)
  in

  let eval_inline ?cache probe_env cursor cands =
    List.map (fun m -> Moves.apply ?cache ~metrics ~delta probe_env cursor m) cands
  in

  let applied = ref [] in
  let sequences = ref 0 in
  let iterations = ref 0 in
  let current = ref start in
  let improved = ref true in

  if num_probes = 1 then
    (* Flat path: one trajectory, each candidate batch evaluated in order on
       the caller.  This is also the bit-identical reference the
       speculative path's jobs=1 runs are compared against by the
       determinism tests. *)
    while !improved && !iterations < max_iterations do
      incr iterations;
      improved := false;
      let best_prefix, best_prefix_moves, best_prefix_sols =
        depth_probe env !current ~rng ~eval:(eval_inline ?cache)
      in
      if best_prefix.Solution.cost < (!current).Solution.cost -. 1e-9 then begin
        current := best_prefix;
        applied := best_prefix_moves @ !applied;
        incr sequences;
        improved := true;
        (* Every move of the accepted prefix produced a solution the search
           now stands behind; verify each, in application order. *)
        List.iter verify_accepted (List.rev best_prefix_sols)
      end
    done
  else begin
    (* --- Speculative multi-pivot exploration -------------------------------
       Anchors are the accepted-prefix seeds of the current solution,
       newest first: anchor 0 is the current solution, anchor j the
       solution j moves earlier on the accepted trajectory.  Each iteration
       launches [num_probes] full depth probes, probe k pivoting at anchor
       min(k, available); every probe gets a private Rng stream (split from
       the coordinator's in pivot order, before any probe runs), a private
       estimator replica and a private cache overlay, so probes are pure
       functions of deterministic inputs and can run on any domain.  The
       coordinator merges replicas in pivot order, then accepts the
       lowest-cost probe result (ties broken by smallest pivot index) iff
       it improves on the current solution — possibly rewinding the
       trajectory to a better branch off an earlier prefix. *)
    let anchors = ref [ (start, []) ] in
    while !improved && !iterations < max_iterations do
      incr iterations;
      improved := false;
      let n_anchors = List.length !anchors in
      (* Pivots and probe Rng streams are drawn by the coordinator in pivot
         order before any probe runs — an explicit loop, because the split
         order must not depend on list-combinator evaluation order. *)
      let probes =
        let acc = ref [] in
        for k = 0 to num_probes - 1 do
          let anchor_sol, anchor_log = List.nth !anchors (min k (n_anchors - 1)) in
          let probe_rng = Rng.split rng in
          acc := (anchor_sol, anchor_log, probe_rng) :: !acc
        done;
        List.rev !acc
      in
      let run_probe (anchor_sol, anchor_log, probe_rng) =
        let t0 = Parallel.now_s () in
        let pr_cache = Option.map Solution.fork_cache cache in
        let pr_ctx = Estimate.fork env.Solution.est_ctx in
        let probe_env = { env with Solution.est_ctx = pr_ctx } in
        let pr_best, pr_moves, pr_sols =
          depth_probe probe_env anchor_sol ~rng:probe_rng
            ~eval:(eval_inline ?cache:pr_cache)
        in
        {
          pr_anchor_sol = anchor_sol;
          pr_anchor_log = anchor_log;
          pr_best;
          pr_moves;
          pr_sols;
          pr_cache;
          pr_ctx;
          pr_busy_s = Parallel.now_s () -. t0;
        }
      in
      let results =
        match pool with
        (* Probe fan-out is worth it only with real hardware parallelism:
           time-slicing whole depth probes on one core pays dispatch and
           context-switch cost for nothing (the BENCH_3 lesson, at probe
           granularity). *)
        | Some p when Parallel.physical_parallelism p > 1 ->
          let t0 = Parallel.now_s () in
          let rs, st = Parallel.map_stealing p ~chunk:1 run_probe probes in
          steals := !steals + st;
          let width = min (Parallel.physical_parallelism p) num_probes in
          capacity_s :=
            !capacity_s +. ((Parallel.now_s () -. t0) *. float_of_int width);
          List.iter (fun r -> atomic_addf busy_s r.pr_busy_s) rs;
          rs
        | _ -> List.map run_probe probes
      in
      probes_launched := !probes_launched + num_probes;
      (* Deterministic merge point: publish every probe's replica in pivot
         order (losing probes' work stays warm in the shared memos), then
         pick the winner. *)
      List.iter
        (fun r ->
          Option.iter Solution.commit_cache r.pr_cache;
          Estimate.merge ~into:env.Solution.est_ctx r.pr_ctx)
        results;
      let winner =
        List.fold_left
          (fun acc r ->
            match acc with
            | Some w when w.pr_best.Solution.cost <= r.pr_best.Solution.cost -> acc
            | _ -> Some r)
          None results
      in
      match winner with
      | Some w when w.pr_best.Solution.cost < (!current).Solution.cost -. 1e-9 ->
        let new_log = w.pr_moves @ w.pr_anchor_log in
        current := w.pr_best;
        applied := new_log;
        incr sequences;
        incr probes_won;
        improved := true;
        (* Only the merged accepted solution is re-verified; the prefix
           steps of the winning probe and all losing probes are speculative
           intermediates the search never commits to individually. *)
        verify_accepted w.pr_best;
        (* Rebuild the anchor window from the winning probe's prefix,
           newest first (the head is the new current solution), ending at
           the probe's own anchor. *)
        let rec prefix_anchors log sols =
          match sols with
          | [] -> []
          | s :: tl -> (s, log) :: prefix_anchors (List.tl log) tl
        in
        let rec take n = function
          | [] -> []
          | _ when n <= 0 -> []
          | x :: tl -> x :: take (n - 1) tl
        in
        anchors :=
          take num_probes
            (prefix_anchors new_log w.pr_sols
            @ [ (w.pr_anchor_sol, w.pr_anchor_log) ])
      | Some _ | None -> ()
    done
  end;
  let cache_hits, pruned, _rebuilt, delta_repriced = Solution.metrics_counts metrics in
  let frags_reused, frags_scheduled =
    match frag0 with
    | None -> (0, 0)
    | Some (fc, (r0, s0)) ->
      let r1, s1 = Fragcache.counters fc in
      (r1 - r0, s1 - s0)
  in
  let busy_fraction =
    if !capacity_s <= 0. then 1.
    else Float.min 1. (Atomic.get busy_s /. !capacity_s)
  in
  ( !current,
    {
      iterations = !iterations;
      sequences_applied = !sequences;
      moves_applied = List.rev !applied;
      candidates_evaluated = Atomic.get evaluated;
      cache_hits;
      pruned_infeasible = pruned;
      delta_repriced;
      probes_launched = !probes_launched;
      probes_won = !probes_won;
      steals = !steals;
      domain_busy_fraction = busy_fraction;
      verified_accepts = !verified;
      frags_reused;
      frags_scheduled;
    } )
