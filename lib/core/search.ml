module Diagnostic = Impact_util.Diagnostic

type stats = {
  iterations : int;
  sequences_applied : int;
  moves_applied : Moves.move list;
  candidates_evaluated : int;
  cache_hits : int;
  pruned_infeasible : int;
  delta_repriced : int;
  (* The next four and the last two are constants the benchmark harness
     still reads. *)
  probes_launched : int;
  probes_won : int;
  steals : int;
  domain_busy_fraction : float;
  verified_accepts : int;  (* solutions re-verified by the verify oracle *)
  frags_reused : int;
  frags_scheduled : int;
}

let optimize env start ~rng ~depth ~max_candidates ?(max_iterations = 50)
    ?(filter = fun _ -> true) ?cache ?(delta = true) ?(num_probes = 1) () =
  if num_probes <> 1 then invalid_arg "Search.optimize: num_probes must be 1";
  let metrics = Solution.create_metrics () in
  (* The verify oracle: under IMPACT_CHECK every solution the search
     commits to (the start point and each step of an accepted prefix) is
     re-verified by the full cross-layer pass stack; an error fails the run
     loudly instead of letting a miscompiling move corrupt the numbers. *)
  let verify_each = Impact_util.Oracle.enabled () in
  let verified = ref 0 in
  (* Infeasible intermediates (cost = infinity) are exempt: the search
     traverses them deliberately — they already failed a legality check and
     can never be the final solution. *)
  let verify_accepted sol =
    if verify_each && sol.Solution.cost < infinity then begin
      incr verified;
      Diagnostic.fail_on_errors
        ~header:
          (Impact_util.Oracle.message "verify"
             (Printf.sprintf "accepted solution fails verification (after %d verified accepts):"
                (!verified - 1)))
        (Solution.diagnostics env sol)
    end
  in
  verify_accepted start;
  let evaluated = ref 0 in

  (* --- One SCALP depth sequence ----------------------------------------------
     From [anchor], repeatedly apply the best candidate (even with negative
     gain) for up to [depth] steps, tracking the best-cost prefix.  The
     first-strictly-better scan makes the chosen step independent of
     evaluation order. *)
  let depth_sequence anchor =
    let cursor = ref anchor in
    let seq = ref [] in
    let seq_sols = ref [] in
    let best_prefix = ref anchor in
    let best_prefix_moves = ref [] in
    let best_prefix_sols = ref [] in
    (try
       for _ = 1 to depth do
         let cands =
           List.filter filter (Moves.candidates env !cursor ~rng ~max:max_candidates)
         in
         let best = ref None in
         List.iter
           (fun move ->
             match Moves.apply ?cache ~metrics ~delta env !cursor move with
             | None -> ()
             | Some sol ->
               incr evaluated;
               (match !best with
               | Some (_, best_sol) when best_sol.Solution.cost <= sol.Solution.cost
                 -> ()
               | _ -> best := Some (move, sol)))
           cands;
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

  let applied = ref [] in
  let sequences = ref 0 in
  let iterations = ref 0 in
  let current = ref start in
  let improved = ref true in
  while !improved && !iterations < max_iterations do
    incr iterations;
    improved := false;
    let best_prefix, best_prefix_moves, best_prefix_sols = depth_sequence !current in
    if best_prefix.Solution.cost < (!current).Solution.cost -. 1e-9 then begin
      current := best_prefix;
      applied := best_prefix_moves @ !applied;
      incr sequences;
      improved := true;
      (* Every move of the accepted prefix produced a solution the search
         now stands behind; verify each, in application order. *)
      List.iter verify_accepted (List.rev best_prefix_sols)
    end
  done;
  let cache_hits, pruned, _rebuilt, delta_repriced = Solution.metrics_counts metrics in
  ( !current,
    {
      iterations = !iterations;
      sequences_applied = !sequences;
      moves_applied = List.rev !applied;
      candidates_evaluated = !evaluated;
      cache_hits;
      pruned_infeasible = pruned;
      delta_repriced;
      probes_launched = 0;
      probes_won = 0;
      steals = 0;
      domain_busy_fraction = 1.;
      verified_accepts = !verified;
      frags_reused = 0;
      frags_scheduled = 0;
    } )
