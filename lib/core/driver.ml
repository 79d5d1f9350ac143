module Graph = Impact_cdfg.Graph
module Ranges = Impact_cdfg.Ranges
module Rangecheck = Impact_sim.Rangecheck
module Scheduler = Impact_sched.Scheduler
module Enc = Impact_sched.Enc
module Sim = Impact_sim.Sim
module Module_library = Impact_modlib.Module_library
module Estimate = Impact_power.Estimate
module Measure = Impact_power.Measure
module Oracle = Impact_util.Oracle
module Rng = Impact_util.Rng
module Parallel = Impact_util.Parallel

include Tier.Types

let default_options =
  {
    clock_ns = 15.;
    style = Scheduler.Wavesched;
    depth = 4;
    max_candidates = 30;
    seed = 1;
    enable_restructure = true;
    max_iterations = 30;
    probes = 1;  (* read by nothing: kept for the benchmark harness *)
    delta_reprice = true;
    range_power = false;
  }

let options_fingerprint = Tier.options_fingerprint
let design_key ~options program ~workload =
  Tier.design_key (Tier.request ~options program ~workload)

let sweep_key ~options program ~workload = Tier.sweep_key (Tier.request ~options program ~workload)

let traces_key program ~workload =
  Tier.traces_key (Tier.request ~options:default_options program ~workload)

(* Step 1: behavioral simulation, the parallel reference architecture and
   the minimum-ENC schedule that the laxity scales into a budget.  With a
   store, the estimator starts with the traces tier's switching memos. *)
let request_env ?store (r : Tier.request) ~objective ~laxity =
  let options = r.Tier.rq_options and program = r.Tier.rq_program in
  let run = Sim.simulate program ~workload:r.Tier.rq_workload in
  let min_stg =
    Scheduler.min_enc_schedule options.style ~clock_ns:options.clock_ns program
      Module_library.default
  in
  let enc_min = Enc.analytic min_stg run.Sim.profile in
  let area_ref =
    let b = Impact_rtl.Binding.parallel program.Graph.graph Module_library.default in
    let dp = Impact_rtl.Datapath.build b in
    Impact_rtl.Binding.fu_area b +. Impact_rtl.Binding.reg_area b
    +. Impact_rtl.Datapath.mux_area dp
  in
  let est_ctx =
    (* One analysis serves both consumers: the range oracle (assert every
       simulated value sits inside its inferred fact) and, under
       [range_power], effective-width pricing. *)
    let checking = Oracle.enabled () in
    if options.range_power || checking then begin
      let analysis = Ranges.analyze program in
      if checking then Rangecheck.check analysis run;
      if options.range_power then
        Estimate.create_ctx ~eff:(Ranges.effective_widths analysis) run
      else Estimate.create_ctx run
    end
    else Estimate.create_ctx run
  in
  Tier.seed_traces ?store r est_ctx;
  let env =
    {
      Solution.program;
      library = Module_library.default;
      sched_config = Scheduler.config_of_style options.style ~clock_ns:options.clock_ns;
      est_ctx;
      enc_budget = laxity *. enc_min;
      objective;
      area_ref;
    }
  in
  (env, enc_min)

let build_env ?(options = default_options) ?store program ~workload =
  request_env ?store (Tier.request ~options program ~workload)

(* Steps 2 and 3: the parallel initial architecture, then iterative
   improvement under the ENC budget; Vdd scaling (step 4) prices every
   candidate.  Running inside an already-built environment lets a sweep
   share one simulation, estimation context and signature cache across all
   of its synthesis points. *)
let synthesize_env ~options ~cache env ~enc_min ~objective ~laxity =
  let initial = Solution.initial ~cache env in
  let rng = Rng.create ~seed:options.seed in
  (* Ablation A1: optionally strip the restructuring move from the set. *)
  let filter move =
    options.enable_restructure
    || match move with Moves.Restructure _ -> false | _ -> true
  in
  let solution, stats =
    Search.optimize env initial ~rng ~depth:options.depth
      ~max_candidates:options.max_candidates ~max_iterations:options.max_iterations
      ~filter ~cache ~delta:options.delta_reprice ()
  in
  {
    d_solution = solution;
    d_objective = objective;
    d_laxity = laxity;
    d_enc_min = enc_min;
    d_enc_budget = env.Solution.enc_budget;
    d_search = stats;
    d_env = env;
  }

(* The caller's shared signature cache, or a fresh one. *)
let cache_or_fresh = function Some cache -> cache | None -> Solution.create_cache ()

(* With a store, the environment comes from the handle's memo
   ({!Tier.workload_env}), built once per program and workload; without
   one, each call builds its own. *)
let workload_env ?store r =
  Tier.workload_env ?store r (fun store ->
      request_env ?store r ~objective:Solution.Minimize_area ~laxity:1.0)

let synthesize ?(options = default_options) ?cache ?store program ~workload ~objective ~laxity
    () =
  let r = Tier.request ~options program ~workload in
  let we = workload_env ?store r in
  Tier.find_or_synthesize ?store r ~objective ~laxity we (fun env ->
      synthesize_env ~options ~cache:(cache_or_fresh cache) env ~enc_min:(Tier.enc_min we)
        ~objective ~laxity)

let restructure_all design =
  let sol = design.d_solution in
  let ports =
    Impact_rtl.Datapath.restructurable sol.Solution.dp
    |> List.map (fun idx ->
           (Impact_rtl.Datapath.network sol.Solution.dp idx).Impact_rtl.Datapath.net_port)
  in
  (* This is an analysis helper (ablation A1): the schedule is kept so the
     comparison isolates the tree shapes (same states, same binding, same
     register lifetimes); recorded path delays may be stale, which the
     paper's move semantics permit until a later move compensates. *)
  let env = { design.d_env with Solution.enc_budget = infinity } in
  let sol' =
    Solution.rebuild env ~binding:sol.Solution.binding ~restructured:ports
      ~reuse_stg:(Some sol.Solution.stg)
  in
  { design with d_solution = sol' }

let measure design program ~workload ?vdd () =
  let sol = design.d_solution in
  let vdd = Option.value vdd ~default:sol.Solution.vdd in
  Measure.measure program sol.Solution.stg sol.Solution.dp ~workload ~vdd ()

(* One simulation, estimation context, signature cache and worker pool
   serve the whole sweep: each point only changes the ENC budget and the
   objective, which are exactly the environment-dependent inputs the cache
   prices per call.

   Sweep points are mutually independent — each synthesis seeds its own RNG
   from [options.seed] and only reads the shared run/memos, whose entries
   are deterministic functions of their keys — so the coarse fan-out below
   is bit-identical to the sequential sweep regardless of which domain
   computes which point (asserted by test_parallel_sweep). *)
let figure13 ?(options = default_options) ?pool ?cache ?store program ~workload ~laxities =
  let r = Tier.request ~options program ~workload in
  let we = workload_env ?store r in
  let cold () =
    let cache = cache_or_fresh cache in
    let synth ~objective ~laxity =
      synthesize_env ~options ~cache (Tier.env_at we ~objective ~laxity)
        ~enc_min:(Tier.enc_min we) ~objective ~laxity
    in
    let point_map f xs =
      (* Coarse fan-out needs real cores: time-slicing sweep points over
         one core only adds dispatch and per-domain GC overhead. *)
      match pool with
      | Some p when Parallel.physical_parallelism p > 1 -> Parallel.map p f xs
      | Some _ | None -> List.map f xs
    in
    (* Phase 1 — synthesis, one run per sweep unit. *)
    let units = Tier.sweep_units laxities in
    let designs =
      List.combine units
        (point_map (fun (objective, laxity) -> synth ~objective ~laxity) units)
    in
    let design_for key = List.assoc key designs in
    let base_design = design_for (Solution.Minimize_area, 1.0) in
    (* Phase 2 — measurement: the base at nominal supply plus both designs
       of every point at their own scaled supplies, all independent. *)
    let measure_units =
      (base_design, Some Impact_power.Vdd.nominal)
      :: List.concat_map
           (fun laxity ->
             [
               (design_for (Solution.Minimize_area, laxity), None);
               (design_for (Solution.Minimize_power, laxity), None);
             ])
           laxities
    in
    let measured =
      point_map (fun (design, vdd) -> measure design program ~workload ?vdd ()) measure_units
    in
    let base_power = (List.hd measured).Measure.m_power in
    let base_area = base_design.d_solution.Solution.area in
    let rec assemble laxities measured =
      match (laxities, measured) with
      | [], _ -> []
      | laxity :: rest, a_measured :: i_measured :: measured_rest ->
        let area_design = design_for (Solution.Minimize_area, laxity) in
        let power_design = design_for (Solution.Minimize_power, laxity) in
        {
          sp_laxity = laxity;
          sp_a_power = a_measured.Measure.m_power /. base_power;
          sp_i_power = i_measured.Measure.m_power /. base_power;
          sp_i_area = power_design.d_solution.Solution.area /. base_area;
          sp_a_vdd = area_design.d_solution.Solution.vdd;
          sp_i_vdd = power_design.d_solution.Solution.vdd;
          sp_area_design = area_design;
          sp_power_design = power_design;
        }
        :: assemble rest measured_rest
      | _ :: _, _ -> invalid_arg "figure13: measurement/laxity mismatch"
    in
    let points = assemble laxities (List.tl measured) in
    ( { sw_base_power = base_power; sw_base_area = base_area; sw_points = points },
      designs )
  in
  Tier.find_or_sweep ?store r ~laxities we cold
