(* The repository benchmark: one workload per run, chosen by --workload.

     bash perfbench/run.sh --workload sweep-cold --seed 1 --seconds 25 --trace 0

   Workloads (closed loop: a request is issued when the previous one has
   completed; see perfbench/NOTES.md for why each was chosen):
   - sweep-cold: default-option Figure-13 sweeps, no store, one at a time;
   - synth-longtrace: light-search synth + measure requests on 1200-pass
     traces, no store;
   - serve-mixed: two client connections to [impact_cli serve] daemons on
     fresh stores, mostly repeats (design-tier hits), some never-seen
     shifted-laxity misses, and identical concurrent pairs.

   Inputs derive from --seed.  Requests run in fixed batches, as many as
   --seconds holds at a fixed per-batch budget.  Times are rescaled to a
   reference host speed (hostspeed.ml).  Every output is checked outside
   the timed intervals.  The last stdout line is one JSON object: with --trace 0
   the end-to-end metrics, with --trace 1 the per-layer metrics of a traced
   replay through each layer's public functions. *)

module Driver = Impact_core.Driver
module Solution = Impact_core.Solution
module Search = Impact_core.Search
module Moves = Impact_core.Moves
module Suite = Impact_benchmarks.Suite
module Measure = Impact_power.Measure
module Estimate = Impact_power.Estimate
module Sim = Impact_sim.Sim
module Scheduler = Impact_sched.Scheduler
module Fragcache = Impact_sched.Fragcache
module Stg = Impact_sched.Stg
module Datapath = Impact_rtl.Datapath
module Module_library = Impact_modlib.Module_library
module Store = Impact_store.Store
module Wire = Impact_store.Wire
module Rng = Impact_util.Rng
module Bitvec = Impact_util.Bitvec
module Interp = Impact_lang.Interp
module Elaborate = Impact_lang.Elaborate
module Parser = Impact_lang.Parser
module Typecheck = Impact_lang.Typecheck

(* --- Arguments --------------------------------------------------------- *)

let workload_name = ref ""
let seed = ref 1
let seconds = ref 25.
let traced = ref false
let cli = ref "_build/default/bin/impact_cli.exe"

let usage () =
  prerr_endline
    "usage: perfbench --workload sweep-cold|synth-longtrace|serve-mixed --seed N \
     --seconds S --trace 0|1 [--cli PATH]";
  exit 2

let parse_args () =
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest -> workload_name := w; go rest
    | "--seed" :: s :: rest -> (
      match int_of_string_opt s with Some s -> seed := s; go rest | None -> usage ())
    | "--seconds" :: s :: rest -> (
      match float_of_string_opt s with
      | Some s when s > 0. -> seconds := s; go rest
      | _ -> usage ())
    | "--trace" :: ("0" | "1" as t) :: rest -> traced := t = "1"; go rest
    | "--cli" :: p :: rest -> cli := p; go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv))

(* --- Helpers ----------------------------------------------------------- *)

let now = Trace.now

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* A call's result and the interval it ran in. *)
let interval f =
  let start = now () in
  let v = f () in
  (v, (start, now ()))

(* One sequential request: it starts from a collected heap, so that the
   previous request's garbage is not collected on its time. *)
let timed_request f =
  Gc.full_major ();
  interval f

(* An interval's length at the reference speed (Hostspeed). *)
let scaled (start, stop) = Hostspeed.scale ~start ~stop (stop -. start)

(* Set-up is repeated and its median reported, so that work moved into
   set-up shows without one slow call deciding the figure.  Every repeat
   is recorded here, at the reference speed. *)
let setup_times = ref []

let timed_setup f =
  Gc.full_major ();
  let v, span = interval f in
  setup_times := scaled span :: !setup_times;
  v

let setup_s () = Stats.median !setup_times

let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec find () =
          match input_line ic with
          | exception End_of_file -> nan
          | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %f kB" (fun kb ->
                  kb /. 1024.)
            else find ()
        in
        find ())

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

(* Scratch space inside the checkout (relative, so socket paths stay short). *)
let run_dir = Filename.concat ".perfbench-run" (string_of_int (Unix.getpid ()))

let mkdir_p path =
  let rec go p =
    if not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      Unix.mkdir p 0o755
    end
  in
  go path

(* The traced run's spans, kept past the run for inspection. *)
let write_spans () =
  Trace.write
    (Printf.sprintf ".perfbench-run/spans-%s-seed%d.jsonl" !workload_name !seed)

(* Deterministic per-request trace seeds derived from --seed. *)
let trace_seed ~batch i = (!seed * 7919) + (batch * 131) + i

(* --- Checks (run after the timed window) ------------------------------- *)

let attempted = ref 0
let failed = ref 0

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      incr failed;
      Printf.eprintf "perfbench: check failed: %s\n%!" msg)
    fmt

(* A request's inputs with the language interpreter's outputs for every
   pass, the reference the synthesized designs are checked against. *)
type inputs = {
  workload : (string * int) list list;
  expected : (string * Bitvec.t) list list;
}

let make_inputs typed workload =
  { workload; expected = List.map (fun inputs -> (Interp.run typed ~inputs).Interp.results) workload }

let outputs_match inp (m : Measure.t) =
  List.for_all2
    (fun expected got ->
      List.for_all
        (fun (name, v) ->
          match List.assoc_opt name got with
          | Some g -> Bitvec.to_signed g = Bitvec.to_signed v
          | None -> false)
        expected)
    inp.expected (Array.to_list m.Measure.m_outputs)

(* --- Metrics ----------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let metric name value unit_ = { name; value; unit_ }

let print_result metrics =
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!failed = 0) (max 1 !attempted) !failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (num m.value) m.unit_)
          metrics))

(* --- Closed loop of fixed batches --------------------------------------- *)

(* One timed request: its place in the batch, its time as measured and at
   the reference speed. *)
type request = { pos : int; raw : float; ref_s : float }

type loop = {
  requests : request list;
  batch_size : int;
  wall : float;  (** reference seconds: one batch *)
  raw_wall : float;  (** the same statistic on the measured times *)
  p50 : float;  (** reference seconds: the median of the places' medians *)
  raw_p50 : float;
}

(* A human-readable block of every figure the workload defines, including
   the ones that are not guarded end-to-end metrics (measured times, class
   splits, tail percentiles, the Figure-13 quality ratios, the failure
   share). *)
let print_summary metrics lp extra =
  Printf.printf "perfbench %s seed %d\n" !workload_name !seed;
  List.iter
    (fun (name, v, u) -> Printf.printf "  %-24s %14.6g %s\n" name v u)
    (List.map (fun m -> (m.name, m.value, m.unit_)) metrics
    @ [
        ("requests", float_of_int (List.length lp.requests), "count");
        ("wall_measured_s", lp.raw_wall, "s");
        ("req_p50_measured_ms", 1e3 *. lp.raw_p50, "ms");
        ("probe_ms", 1e3 *. Hostspeed.median_probe (), "ms");
      ]
    @ extra);
  Printf.printf "  %-24s %14.6g share\n%!" "failed_frac"
    (float_of_int !failed /. float_of_int (max 1 !attempted))

(* Runs batches 0 .. n-1, n = --seconds / [batch_s] (at least 1), where
   [batch_s] is about one batch's measured time on a loaded host
   (NOTES.md): a run does the same work however fast the host is that
   minute, so a slow minute cannot change which batches the medians see.
   [run_batch b] returns, for each of its requests, its place in the batch
   and the interval its call ran in; checks run outside the intervals.

   Each request is rescaled by the probe samples taken around it, and
   every figure is built from the median time at each place in the batch,
   so one slow request moves none.  A batch's time is the time one client
   spends on it: the sum of the medians at its places, averaged over the
   [clients].  The median request time is the median of the places'
   medians: a pooled median over requests of different kinds falls
   between two kinds and jumps between them from run to run. *)
let closed_loop ?(clients = 1) ~batch_s run_batch =
  let n = max 1 (int_of_float (!seconds /. batch_s)) in
  let batches =
    List.init n (fun b ->
        List.map
          (fun (pos, (start, stop)) -> { pos; raw = stop -. start; ref_s = scaled (start, stop) })
          (run_batch b))
  in
  let reqs = List.concat batches in
  let per_place f =
    List.map
      (fun p ->
        let q1, _, _ = Stats.quartiles (List.filter_map (fun r -> if r.pos = p then Some (f r) else None) reqs) in
        q1)
      (List.sort_uniq compare (List.map (fun r -> r.pos) reqs))
  in
  let wall f = List.fold_left ( +. ) 0. (per_place f) /. float_of_int clients in
  let ref_s r = r.ref_s and raw r = r.raw in
  {
    requests = reqs;
    batch_size = List.length (List.hd batches);
    wall = wall ref_s;
    raw_wall = wall raw;
    p50 = Stats.median (per_place ref_s);
    raw_p50 = Stats.median (per_place raw);
  }

(* The end-to-end metrics every workload shares.  Times are at the
   reference speed; throughput is one batch's requests over its time. *)
let loop_metrics ~setup_s ~rss lp =
  [
    metric "setup_s" setup_s "s";
    metric "wall_s" lp.wall "s";
    metric "req_p50_ms" (1e3 *. lp.p50) "ms";
    metric "throughput_rps" (float_of_int lp.batch_size /. lp.wall) "1/s";
    metric "peak_rss_mb" rss "MB";
  ]

(* --- Shared layer probes ----------------------------------------------- *)

(* Per-call timings of single layer entry points on one benchmark's initial
   datapath.  Each call is repeated so the per-call median rests on several
   samples; the results are discarded. *)
let probe_reps = 5

let layer_probes ~options (env : Solution.env) (initial : Solution.t) workload =
  let program = env.Solution.program in
  ignore (Trace.with_span "sim.simulate" (fun () -> Sim.simulate program ~workload));
  for _ = 1 to probe_reps do
    ignore
      (Trace.with_span "sched.min_enc" (fun () ->
           Scheduler.min_enc_schedule options.Driver.style ~clock_ns:options.Driver.clock_ns
             program Module_library.default))
  done;
  let dp = ref initial.Solution.dp in
  for _ = 1 to probe_reps do
    dp := Trace.with_span "rtl.datapath_build" (fun () -> Datapath.build initial.Solution.binding)
  done;
  let schedule ?frags () =
    Scheduler.schedule ?frags env.Solution.sched_config program
      ~delay:(Datapath.delay_model !dp) ~res:(Datapath.resource_model !dp)
  in
  for _ = 1 to probe_reps do
    ignore (Trace.with_span "sched.schedule_cold" (fun () -> schedule ()))
  done;
  let frags = Fragcache.create () in
  let stg = schedule ~frags () in
  for _ = 1 to probe_reps do
    ignore (Trace.with_span "sched.schedule_spliced" (fun () -> schedule ~frags ()))
  done;
  for _ = 1 to probe_reps do
    ignore
      (Trace.with_span "power.estimate" (fun () ->
           Estimate.estimate env.Solution.est_ctx ~stg ~dp:!dp ()))
  done

(* Reproducible search counters: identical at jobs = 1 for identical
   inputs, so two runs of one request must agree on them exactly. *)
let reproducible (s : Search.stats) =
  ( s.Search.iterations,
    s.Search.sequences_applied,
    List.map Moves.describe s.Search.moves_applied,
    s.Search.candidates_evaluated,
    s.Search.cache_hits,
    s.Search.pruned_infeasible,
    s.Search.delta_repriced,
    (s.Search.probes_launched, s.Search.probes_won, s.Search.frags_reused,
     s.Search.frags_scheduled) )

(* Bit-identity of two designs: every recorded metric, the schedule and
   the accepted trajectory. *)
let design_id (d : Driver.design) =
  let s = d.Driver.d_solution in
  ( Printf.sprintf "%h|%h|%h|%h" s.Solution.cost s.Solution.area s.Solution.enc s.Solution.vdd,
    Stg.signature s.Solution.stg,
    reproducible d.Driver.d_search )

type counters = {
  mutable candidates : int;
  mutable iterations : int;
  mutable hits : int;
  mutable pruned : int;
  mutable repriced : int;
  mutable launched : int;
  mutable won : int;
  mutable steals : int;
  mutable busy : float list;
}

let counters () =
  {
    candidates = 0; iterations = 0; hits = 0; pruned = 0; repriced = 0; launched = 0;
    won = 0; steals = 0; busy = [];
  }

let add_stats c (s : Search.stats) =
  c.candidates <- c.candidates + s.Search.candidates_evaluated;
  c.iterations <- c.iterations + s.Search.iterations;
  c.hits <- c.hits + s.Search.cache_hits;
  c.pruned <- c.pruned + s.Search.pruned_infeasible;
  c.repriced <- c.repriced + s.Search.delta_repriced;
  c.launched <- c.launched + s.Search.probes_launched;
  c.won <- c.won + s.Search.probes_won;
  c.steals <- c.steals + s.Search.steals;
  c.busy <- s.Search.domain_busy_fraction :: c.busy

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* Frag/cache/memo state accumulated over a traced run. *)
type engine_totals = {
  mutable frag_reused : int;
  mutable frag_scheduled : int;
  mutable frag_entries : int;
  mutable cache_entries : int;
  mutable memo_entries : int;
  mutable memo_cost_ns : int;
}

let engine_totals () =
  {
    frag_reused = 0; frag_scheduled = 0; frag_entries = 0; cache_entries = 0;
    memo_entries = 0; memo_cost_ns = 0;
  }

let add_engine t frags cache est_ctx =
  let reused, scheduled = Fragcache.counters frags in
  t.frag_reused <- t.frag_reused + reused;
  t.frag_scheduled <- t.frag_scheduled + scheduled;
  t.frag_entries <- t.frag_entries + Fragcache.entries frags;
  t.cache_entries <- t.cache_entries + Solution.cache_entries cache;
  t.memo_entries <- t.memo_entries + Estimate.memo_entries est_ctx;
  t.memo_cost_ns <- t.memo_cost_ns + Estimate.memo_cost_ns est_ctx

(* Every per-layer metric, from the recorded spans and counters; layers a
   workload does not exercise report 0. *)
let layer_metrics ?(store = []) ~overhead c e =
  let ms name = metric (name ^ "_ms") (Trace.per_call_ms name) "ms" in
  let s name unit_name = metric unit_name (Trace.self_total name) "s" in
  let count name v = metric name (float_of_int v) "count" in
  let share name v = metric name v "ratio" in
  let st name = Option.value (List.assoc_opt name store) ~default:0. in
  [
    ms "lang.elaborate";
    s "sim.simulate" "sim.simulate_s";
    ms "sched.min_enc";
    ms "sched.schedule_cold";
    ms "sched.schedule_spliced";
    count "sched.frags_scheduled" e.frag_scheduled;
    count "sched.frags_reused" e.frag_reused;
    share "sched.frag_reuse_ratio" (ratio e.frag_reused (e.frag_reused + e.frag_scheduled));
    count "sched.frag_entries" e.frag_entries;
    ms "rtl.datapath_build";
    ms "power.estimate";
    share "power.delta_ratio" (ratio c.repriced (c.candidates - c.pruned));
    metric "power.memo_cost_s" (float_of_int e.memo_cost_ns /. 1e9) "s";
    count "power.memo_entries" e.memo_entries;
    s "power.measure" "power.measure_s";
    s "core.build_env" "core.build_env_s";
    ms "core.initial";
    s "core.search" "core.search_s";
    count "core.candidates" c.candidates;
    count "core.iterations" c.iterations;
    share "core.cache_hit_ratio" (ratio c.hits c.candidates);
    share "core.pruned_ratio" (ratio c.pruned c.candidates);
    share "core.probe_win_ratio" (ratio c.won c.launched);
    count "core.cache_entries" e.cache_entries;
    metric "store.find_ms" (st "store.find_ms") "ms";
    metric "store.warm_rebuild_ms" (st "store.warm_rebuild_ms") "ms";
  ]
  @ List.map
      (fun ns ->
        let n = Printf.sprintf "store.%s.hit_ratio" ns in
        share n (st n))
      [ "design"; "sim"; "traces"; "lib"; "frag" ]
  @ [
      metric "store.writes" (st "store.writes") "count";
      metric "store.bytes" (st "store.bytes") "bytes";
      metric "store.evicted" (st "store.evicted") "count";
      metric "serve.ping_ms" (st "serve.ping_ms") "ms";
      metric "serve.coalesced" (st "serve.coalesced") "count";
      share "serve.warm_frac" (st "serve.warm_frac");
      share "trace.overhead_frac" overhead;
      (* Timing-dependent diagnostics: never compared between runs. *)
      count "diag.steals" c.steals;
      share "diag.domain_busy_fraction"
        (match c.busy with [] -> 0. | b -> Stats.median b);
    ]

(* --- Benchmark preparation (the set-up of sweep and synth) -------------- *)

type prepared = {
  bench : Suite.t;
  program : Impact_cdfg.Graph.program;
  typed : Typecheck.tprogram;
}

let prepare bench =
  let program =
    Trace.with_span "lang.elaborate" (fun () -> Elaborate.from_source bench.Suite.source)
  in
  { bench; program; typed = Typecheck.check (Parser.parse bench.Suite.source) }

(* Set-up: elaborate every program and make the first batch's inputs and
   reference outputs.  Later batches make theirs between requests, outside
   the timed window.  Returns the set-up's result and a function that
   repeats it (discarding the result): the loops repeat it before every
   request, so the set-up times are spread over the run. *)
let set_up benches first_batch =
  let f () =
    let prepared = List.map prepare benches in
    (prepared, first_batch prepared)
  in
  (timed_setup f, fun () -> ignore (timed_setup f))

(* --- sweep-cold --------------------------------------------------------- *)

(* One sweep of each; every batch of a run repeats the same three sweeps,
   so each place's median rests on samples of one input.  send, loops and
   dealer take 11-28 s a sweep and vary by up to 40 % across traces: one of
   them alone would fill a run and make it unsteady (NOTES.md). *)
let sweep_benches = Suite.[ gcd; paulin; cordic ]
let laxities = [ 1.0; 1.5; 2.0; 2.5; 3.0 ]
let sweep_passes = 60
let sweep_options = Driver.default_options

(* Only the gcd trace follows --seed.  A paulin or cordic sweep's time
   depends on its trace through the search trajectory, by up to 40 %
   between traces, so theirs are fixed: with seed-dependent traces the run
   time tracked the seed more than the code (NOTES.md). *)
let sweep_inputs prepared =
  List.mapi
    (fun i p ->
      let seed = if p.bench.Suite.bench_name = "gcd" then trace_seed ~batch:0 i else i + 1 in
      make_inputs p.typed (p.bench.Suite.workload ~seed ~passes:sweep_passes))
    prepared

let sweep_points_id (sw : Driver.sweep) =
  Printf.sprintf "%h|%h|%s" sw.Driver.sw_base_power sw.Driver.sw_base_area
    (String.concat ";"
       (List.map
          (fun p ->
            Printf.sprintf "%h,%h,%h,%h,%h,%h" p.Driver.sp_laxity p.Driver.sp_a_power
              p.Driver.sp_i_power p.Driver.sp_i_area p.Driver.sp_a_vdd p.Driver.sp_i_vdd)
          sw.Driver.sw_points))

let sweep_designs (sw : Driver.sweep) =
  List.concat_map
    (fun p -> [ p.Driver.sp_area_design; p.Driver.sp_power_design ])
    sw.Driver.sw_points

(* Every swept design's measured outputs against the interpreter's. *)
let sweep_outputs_ok p inp sw =
  List.for_all
    (fun d -> outputs_match inp (Driver.measure d p.program ~workload:inp.workload ()))
    (sweep_designs sw)

(* One synthesis unit through the public layer calls, as [Driver]'s cold
   path runs it: the initial architecture, then the search seeded from
   [options.seed]. *)
let replay_unit ~options ~counts ~cache env ~enc_min ~objective ~laxity =
  let initial = Trace.with_span "core.initial" (fun () -> Solution.initial ~cache env) in
  let sol, stats =
    Trace.with_span "core.search" (fun () ->
        Search.optimize env initial ~rng:(Rng.create ~seed:options.Driver.seed)
          ~depth:options.Driver.depth ~max_candidates:options.Driver.max_candidates
          ~max_iterations:options.Driver.max_iterations ~filter:(fun _ -> true) ~cache
          ~delta:options.Driver.delta_reprice ~num_probes:options.Driver.probes ())
  in
  add_stats counts stats;
  ( initial,
    {
      Driver.d_solution = sol;
      d_objective = objective;
      d_laxity = laxity;
      d_enc_min = enc_min;
      d_enc_budget = env.Solution.enc_budget;
      d_search = stats;
      d_env = env;
    } )

(* The traced replay of [Driver.figure13] through the public layer calls:
   one environment, one signature cache with one fragment cache, then the
   same units and measurements in the same order. *)
let replay_sweep ~options ~totals ~counts program ~workload =
  let env0, enc_min =
    Trace.with_span "core.build_env" (fun () ->
        Driver.build_env ~options program ~workload ~objective:Solution.Minimize_area
          ~laxity:1.0)
  in
  let frags = Fragcache.create ~context:program.Impact_cdfg.Graph.prog_name () in
  let cache = Solution.create_cache ~frags () in
  let units =
    (Solution.Minimize_area, 1.0)
    :: List.concat_map
         (fun l ->
           (if l = 1.0 then [] else [ (Solution.Minimize_area, l) ])
           @ [ (Solution.Minimize_power, l) ])
         laxities
  in
  let first_initial = ref None in
  let designs =
    List.map
      (fun (objective, laxity) ->
        let env = { env0 with Solution.enc_budget = laxity *. enc_min; objective } in
        let initial, d = replay_unit ~options ~counts ~cache env ~enc_min ~objective ~laxity in
        if !first_initial = None then first_initial := Some initial;
        ((objective, laxity), d))
      units
  in
  let design_for k = List.assoc k designs in
  let measure d vdd =
    Trace.with_span "power.measure" (fun () -> Driver.measure d program ~workload ?vdd ())
  in
  let base = design_for (Solution.Minimize_area, 1.0) in
  let base_power = (measure base (Some Impact_power.Vdd.nominal)).Measure.m_power in
  let base_area = base.Driver.d_solution.Solution.area in
  let points =
    List.map
      (fun laxity ->
        let a = design_for (Solution.Minimize_area, laxity)
        and i = design_for (Solution.Minimize_power, laxity) in
        let a_power = (measure a None).Measure.m_power in
        let i_power = (measure i None).Measure.m_power in
        {
          Driver.sp_laxity = laxity;
          sp_a_power = a_power /. base_power;
          sp_i_power = i_power /. base_power;
          sp_i_area = i.Driver.d_solution.Solution.area /. base_area;
          sp_a_vdd = a.Driver.d_solution.Solution.vdd;
          sp_i_vdd = i.Driver.d_solution.Solution.vdd;
          sp_area_design = a;
          sp_power_design = i;
        })
      laxities
  in
  add_engine totals frags cache env0.Solution.est_ctx;
  ( { Driver.sw_base_power = base_power; sw_base_area = base_area; sw_points = points },
    env0,
    Option.get !first_initial )

let sweep_cold () =
  let (prepared, first), again = set_up sweep_benches sweep_inputs in
  let sweep p inp = Driver.figure13 ~options:sweep_options p.program ~workload:inp.workload ~laxities in
  if not !traced then begin
    let ipower = ref [] and iarea = ref [] and costs = ref [] in
    let lp =
      closed_loop ~batch_s:6.25 (fun _batch ->
          List.mapi
            (fun i (p, inp) ->
              again ();
              let sw, span = timed_request (fun () -> sweep p inp) in
              incr attempted;
              if not (sweep_outputs_ok p inp sw) then
                fail "%s: a swept design computes wrong outputs" p.bench.Suite.bench_name;
              List.iter
                (fun pt ->
                  ipower := pt.Driver.sp_i_power :: !ipower;
                  iarea := pt.Driver.sp_i_area :: !iarea)
                sw.Driver.sw_points;
              costs := List.map (fun d -> d.Driver.d_solution.Solution.cost) (sweep_designs sw) @ !costs;
              (i, span))
            (List.combine prepared first))
    in
    let metrics =
      loop_metrics ~setup_s:(setup_s ()) ~rss:(vm_hwm_mb "self") lp
      @ [ metric "design_cost_geomean" (Stats.geomean !costs) "cost" ]
    in
    print_summary metrics lp
      [
        ("ipower_norm_geomean", Stats.geomean !ipower, "ratio");
        ("iarea_norm_geomean", Stats.geomean !iarea, "ratio");
      ];
    print_result metrics
  end
  else begin
    (* Untraced reference call, then the traced replay of the same
       request, asserted bit-identical. *)
    let totals = engine_totals () and counts = counters () in
    let untraced = ref 0. and traced_wall = ref 0. in
    List.iter2
      (fun p inp ->
        incr attempted;
        let reference, t_ref = timed (fun () -> sweep p inp) in
        Trace.new_request ();
        let (replayed, env0, initial), t_replay =
          timed (fun () ->
              Trace.with_span "request" (fun () ->
                  replay_sweep ~options:sweep_options ~totals ~counts p.program
                    ~workload:inp.workload))
        in
        untraced := !untraced +. t_ref;
        traced_wall := !traced_wall +. t_replay;
        if sweep_points_id reference <> sweep_points_id replayed then
          fail "%s: replayed sweep points differ from Driver.figure13" p.bench.Suite.bench_name
        else if
          List.map design_id (sweep_designs reference) <> List.map design_id (sweep_designs replayed)
        then fail "%s: replayed designs or reproducible counters differ" p.bench.Suite.bench_name;
        layer_probes ~options:sweep_options env0 initial inp.workload)
      prepared first;
    write_spans ();
    print_result
      (layer_metrics ~overhead:((!traced_wall /. !untraced) -. 1.) counts totals)
  end

(* --- synth-longtrace ---------------------------------------------------- *)

(* The front-end-dominated configuration bench/main.ml's store-warm-miss
   section uses: a small search on a long trace, so measurement and
   simulation carry the request. *)
let synth_options =
  { Driver.default_options with depth = 1; max_candidates = 3; max_iterations = 1; probes = 1 }

let synth_passes = 1200

let synth_points =
  [
    (Suite.gcd, Solution.Minimize_power, 2.0);
    (Suite.paulin, Solution.Minimize_area, 1.5);
    (Suite.cordic, Solution.Minimize_power, 2.5);
    (Suite.gcd, Solution.Minimize_area, 3.0);
    (Suite.paulin, Solution.Minimize_power, 3.0);
  ]

let synth_requests ~batch prepared =
  List.mapi
    (fun i (b, objective, laxity) ->
      let p = List.find (fun p -> p.bench.Suite.bench_name = b.Suite.bench_name) prepared in
      let workload = b.Suite.workload ~seed:(trace_seed ~batch i) ~passes:synth_passes in
      (p, objective, laxity, make_inputs p.typed workload))
    synth_points

let synth_longtrace () =
  let (prepared, first), again =
    set_up [ Suite.gcd; Suite.paulin; Suite.cordic ] (synth_requests ~batch:0)
  in
  let synth (p, objective, laxity, inp) =
    let d =
      Driver.synthesize ~options:synth_options p.program ~workload:inp.workload ~objective
        ~laxity ()
    in
    (d, Driver.measure d p.program ~workload:inp.workload ())
  in
  if not !traced then begin
    let powers = ref [] and costs = ref [] in
    let lp =
      closed_loop ~batch_s:1.6 (fun batch ->
          List.mapi
            (fun i ((p, _, laxity, inp) as req) ->
              again ();
              let (d, m), span = timed_request (fun () -> synth req) in
              incr attempted;
              if not (outputs_match inp m) then
                fail "%s: design at laxity %g computes wrong outputs" p.bench.Suite.bench_name laxity;
              powers := m.Measure.m_power :: !powers;
              costs := d.Driver.d_solution.Solution.cost :: !costs;
              (i, span))
            (if batch = 0 then first else synth_requests ~batch prepared))
    in
    let metrics =
      loop_metrics ~setup_s:(setup_s ()) ~rss:(vm_hwm_mb "self") lp
      @ [ metric "design_cost_geomean" (Stats.geomean !costs) "cost" ]
    in
    print_summary metrics lp [ ("power_geomean", Stats.geomean !powers, "power") ];
    print_result metrics
  end
  else begin
    let totals = engine_totals () and counts = counters () in
    let untraced = ref 0. and traced_wall = ref 0. in
    List.iter
      (fun ((p, objective, laxity, inp) as req) ->
        incr attempted;
        let workload = inp.workload in
        let (d_ref, m_ref), t_ref = timed (fun () -> synth req) in
        Trace.new_request ();
        let (d, m, initial), t_replay =
          timed (fun () ->
              Trace.with_span "request" (fun () ->
                  let options = synth_options in
                  let env, enc_min =
                    Trace.with_span "core.build_env" (fun () ->
                        Driver.build_env ~options p.program ~workload ~objective ~laxity)
                  in
                  let frags = Fragcache.create ~context:p.bench.Suite.bench_name () in
                  let cache = Solution.create_cache ~frags () in
                  let initial, d =
                    replay_unit ~options ~counts ~cache env ~enc_min ~objective ~laxity
                  in
                  add_engine totals frags cache env.Solution.est_ctx;
                  let m =
                    Trace.with_span "power.measure" (fun () ->
                        Driver.measure d p.program ~workload ())
                  in
                  (d, m, initial)))
        in
        untraced := !untraced +. t_ref;
        traced_wall := !traced_wall +. t_replay;
        if design_id d <> design_id d_ref || m.Measure.m_power <> m_ref.Measure.m_power then
          fail "%s: replayed design differs from Driver.synthesize" p.bench.Suite.bench_name;
        if not (outputs_match inp m) then
          fail "%s: design at laxity %g computes wrong outputs" p.bench.Suite.bench_name laxity;
        layer_probes ~options:synth_options d.Driver.d_env initial workload)
      first;
    write_spans ();
    print_result
      (layer_metrics ~overhead:((!traced_wall /. !untraced) -. 1.) counts totals)
  end

(* --- serve-mixed -------------------------------------------------------- *)

(* gcd only: a cold paulin or cordic synthesis through the store writes
   thousands of fragment objects, and every put rescans the whole store
   for eviction, so their set-up alone outlasts a run (NOTES.md). *)
let serve_targets = [ "gcd" ]
let serve_laxities = [ 1.5 ]
let serve_passes = 60
(* The trace and search seed of every serve request.  Fixed, as the paulin
   and cordic traces of sweep-cold are: a synthesis's cost follows its
   trace, and with a seed-dependent one set-up times spread 4.2-7.4 s over
   four seeds.  --seed picks the repeats and the pairs' objectives. *)
let request_seed () = 1

let synth_request ~target ~objective ~laxity =
  Wire.Obj
    [
      ("op", Wire.Str "synthesize");
      ("target", Wire.Str ("bench:" ^ target));
      ("objective", Wire.Str objective);
      ("laxity", Wire.Num laxity);
      ("seed", Wire.Num (float_of_int (request_seed ())));
      ("passes", Wire.Num (float_of_int serve_passes));
    ]

(* The fixed set whose cold answers set-up records. *)
let setup_requests () =
  List.concat_map
    (fun target ->
      List.concat_map
        (fun objective ->
          List.map (fun laxity -> synth_request ~target ~objective ~laxity) serve_laxities)
        [ "power"; "area" ])
    serve_targets

type conn = { ic : in_channel; oc : out_channel; fd : Unix.file_descr }

let connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX sock) with
  | () -> Some { ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd; fd }
  | exception Unix.Unix_error _ -> Unix.close fd; None

let close_conn c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* One request: send the frame, skip progress events, return the result. *)
let call c req =
  Wire.write_frame c.oc (Wire.to_string req);
  let rec read () =
    match Wire.read_frame c.ic with
    | Ok (Some payload) -> (
      match Wire.parse payload with
      | Ok json when Option.bind (Wire.member "event" json) Wire.str = Some "result" -> Ok json
      | Ok _ -> read ()
      | Error e -> Error e)
    | Ok None -> Error "connection closed"
    | Error e -> Error e
  in
  read ()

(* A running daemon and the connection the benchmark controls it over. *)
type daemon = { pid : int; sock : string; control : conn }

(* Daemons still running; killed and reaped if the run fails. *)
let live_daemons = ref []

let reap_daemons () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live_daemons;
  live_daemons := []

(* A daemon on the store in [dir], listening on its own socket [name]. *)
let start_daemon ~dir ~name =
  let sock = Filename.concat run_dir (name ^ ".sock") in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process !cli
      [| !cli; "serve"; "--socket"; sock; "--cache-dir"; dir; "--jobs"; "1" |]
      devnull devnull Unix.stderr
  in
  Unix.close devnull;
  live_daemons := pid :: !live_daemons;
  let deadline = now () +. 30. in
  let rec wait () =
    match connect sock with
    | Some c -> c
    | None ->
      if now () > deadline then failwith "serve daemon did not come up";
      Unix.sleepf 0.005;
      wait ()
  in
  { pid; sock; control = wait () }

let stop_daemon d =
  ignore (call d.control (Wire.Obj [ ("op", Wire.Str "shutdown") ]));
  close_conn d.control;
  ignore (Unix.waitpid [] d.pid);
  live_daemons := List.filter (( <> ) d.pid) !live_daemons

let answer_fields json =
  List.filter_map
    (fun k -> Option.map (fun v -> (k, Wire.to_string v)) (Wire.member k json))
    [ "cost"; "area"; "enc"; "vdd"; "points" ]

let ok json = Option.bind (Wire.member "ok" json) Wire.bool_ = Some true
let flag name json = Option.bind (Wire.member name json) Wire.bool_ = Some true

type item = Repeat of int | Miss of Wire.json | Pair of Wire.json | Idle

type outcome = {
  o_item : item;
  o_pos : int;  (** client * serve_batch_size + slot *)
  o_span : float * float;
  o_result : (Wire.json, string) result;
}

let serve_batch_size = 100

(* Set-up runs this many times; its median is [setup_s]. *)
let serve_setups = 3

(* The last slots of a batch: one where each client in turn sends a
   never-seen miss while the other idles, then one where both send one
   identical request together.  Objectives are fixed by slot.  They come
   after the repeats: a daemon that has run a cold synthesis serves later
   repeats 10-45 % more slowly, by a different amount in every process,
   while fresh daemons serve them alike (NOTES.md). *)
let miss_slots = [ (97, (0, "power")); (98, (1, "area")) ]
let pair_slots = [ (99, "power") ]

(* Client [client]'s share of batch [batch], the same shape in every
   batch and for every seed: 97 repeats of the set-up requests, taken in
   turn, 1 never-seen shifted-laxity synthesize (client 0 for power,
   client 1 for area), 1 idle slot while the other client's miss runs,
   and the pair.  A
   miss's cost follows what the daemon served before it: with seeded
   repeats, one seed's misses took twice another's, run after run
   (NOTES.md).  The seed moves the misses' laxities by less than 1e-7,
   which changes their keys and not their search. *)
let batch_items ~n_setup ~batch ~client =
  let shifted ~objective ~slot =
    synth_request ~target:(List.hd serve_targets) ~objective
      ~laxity:
        (2.0
        +. (1e-7 *. float_of_int (1 + (batch * 1000) + slot))
        +. (1e-11 *. float_of_int (!seed mod 1000)))
  in
  List.init serve_batch_size (fun i ->
      if List.mem_assoc i pair_slots then
        Pair (shifted ~objective:(List.assoc i pair_slots) ~slot:(900 + i))
      else
        match List.assoc_opt i miss_slots with
        | Some (owner, objective) when owner = client -> Miss (shifted ~objective ~slot:i)
        | Some _ -> Idle
        | None -> Repeat ((i + client) mod n_setup))

let serve_mixed () =
  mkdir_p run_dir;
  let setup_reqs = setup_requests () in
  let store_dir = Filename.concat run_dir "store" in
  (* Set-up: a daemon on a fresh store, filled with the cold answers, then
     stopped.  Repeated [serve_setups] times; the batches use the store the
     last one left. *)
  let setup i () =
    rm_rf store_dir;
    mkdir_p store_dir;
    let d = start_daemon ~dir:store_dir ~name:(Printf.sprintf "setup%d" i) in
    let answers =
      List.map
        (fun req ->
          match call d.control req with
          | Ok json when ok json -> answer_fields json
          | Ok json -> failwith ("set-up request failed: " ^ Wire.to_string json)
          | Error e -> failwith ("set-up request failed: " ^ e))
        setup_reqs
    in
    stop_daemon d;
    answers
  in
  let all_answers = List.init serve_setups (fun i -> timed_setup (setup i)) in
  let answers = List.hd all_answers in
  List.iter
    (fun a -> if a <> answers then fail "serve: set-up answers differ between set-ups")
    all_answers;
  let setup_answers = Array.of_list answers in
  let n_setup = Array.length setup_answers in
  let setup_array = Array.of_list setup_reqs in
  (* A barrier for the two client threads. *)
  let m = Mutex.create () and cv = Condition.create () in
  let arrived = ref 0 and generation = ref 0 in
  let barrier () =
    Mutex.lock m;
    let gen = !generation in
    incr arrived;
    if !arrived = 2 then begin
      arrived := 0;
      incr generation;
      Condition.broadcast cv
    end
    else while !generation = gen do Condition.wait cv m done;
    Mutex.unlock m
  in
  let outcomes = ref [] in
  (* The clients take turns, slot by slot: client 0's request, then client
     1's.  Only a pair's two requests overlap.  With overlapping repeats,
     the daemon's threads interleaved them differently on every run, and
     the misses' cost varied twofold between runs of identical inputs.
     Every batch is one daemon's life on the persistent store: the daemon
     starts before it and stops after it, outside the timed requests, and
     [last] sees the daemon before it stops.  Its peak RSS is recorded. *)
  let rss = ref [] in
  let run_batch ?(last = ignore) batch =
    let d = start_daemon ~dir:store_dir ~name:(Printf.sprintf "batch%d" batch) in
    let clients = Array.init 2 (fun _ -> Option.get (connect d.sock)) in
    let per_client = Array.make 2 [] in
    let client k () =
      List.iteri
        (fun slot item ->
          let send req =
            let result, span =
              interval (fun () -> try call clients.(k) req with e -> Error (Printexc.to_string e))
            in
            per_client.(k) <-
              { o_item = item; o_pos = (k * serve_batch_size) + slot; o_span = span; o_result = result }
              :: per_client.(k)
          in
          let turn () =
            match item with
            | Repeat i -> send setup_array.(i)
            | Miss r | Pair r -> send r
            | Idle -> ()
          in
          barrier ();
          match item with
          | Pair _ -> turn ()
          | _ ->
            if k = 0 then turn ();
            barrier ();
            if k = 1 then turn ())
        (batch_items ~n_setup ~batch ~client:k)
    in
    let threads = Array.init 2 (fun k -> Thread.create (client k) ()) in
    Array.iter Thread.join threads;
    Array.iter close_conn clients;
    rss := vm_hwm_mb (string_of_int d.pid) :: !rss;
    last d;
    stop_daemon d;
    let all = per_client.(0) @ per_client.(1) in
    (let reps = List.filter (fun o -> match o.o_item with Repeat _ -> true | _ -> false) all in
     let start = List.fold_left (fun a o -> Float.min a (fst o.o_span)) infinity all
     and stop = List.fold_left (fun a o -> Float.max a (snd o.o_span)) 0. all in
     Printf.eprintf "DBG batch %d rep %.3f mem %.3f sys %.3f\n%!" batch
       (1e3 *. Stats.median (List.map (fun o -> snd o.o_span -. fst o.o_span) reps))
       (1e3 *. Hostspeed.probe_time ~start ~stop) 0.);
    outcomes := all @ !outcomes;
    List.map (fun o -> (o.o_pos, o.o_span)) all
  in
  let check o =
    incr attempted;
    match o.o_result with
    | Error e -> fail "serve: request failed: %s" e
    | Ok json when not (ok json) -> fail "serve: error reply %s" (Wire.to_string json)
    | Ok json -> (
      match o.o_item with
      | Repeat i ->
        if answer_fields json <> setup_answers.(i) then
          fail "serve: repeated answer differs from the cold one: %s" (Wire.to_string json)
      | Miss _ | Pair _ | Idle ->
        if List.length (answer_fields json) <> 4 then
          fail "serve: incomplete answer %s" (Wire.to_string json))
  in
  let classify o =
    match o.o_result with Ok json when flag "warm" json -> `Hit | _ -> `Miss
  in
  (* Both members of a pair must carry the same answer. *)
  let check_pairs outs =
    let pairs = List.filter (fun o -> match o.o_item with Pair _ -> true | _ -> false) outs in
    List.iter
      (fun o ->
        match (o.o_item, o.o_result) with
        | Pair req, Ok json ->
          List.iter
            (fun o' ->
              match (o'.o_item, o'.o_result) with
              | Pair req', Ok json' when req' = req && answer_fields json' <> answer_fields json ->
                fail "serve: coalesced pair answers differ"
              | _ -> ())
            pairs
        | _ -> ())
      pairs
  in
  (* One miss recomputed in-process without a store: the daemon's fresh
     answer must equal a plain cold synthesis. *)
  let check_one_miss outs =
    match
      List.find_opt (fun o -> match (o.o_item, o.o_result) with Miss _, Ok _ -> true | _ -> false) outs
    with
    | Some { o_item = Miss req; o_result = Ok json; _ } -> (
      let str k = Option.get (Option.bind (Wire.member k req) Wire.str) in
      let num k = Option.get (Option.bind (Wire.member k req) Wire.num) in
      let name = String.sub (str "target") 6 (String.length (str "target") - 6) in
      let bench = Suite.find name in
      let workload = bench.Suite.workload ~seed:(request_seed ()) ~passes:serve_passes in
      let options = { Driver.default_options with seed = request_seed () } in
      let objective =
        if str "objective" = "area" then Solution.Minimize_area else Solution.Minimize_power
      in
      let d =
        Driver.synthesize ~options (Suite.program bench) ~workload ~objective
          ~laxity:(num "laxity") ()
      in
      let s = d.Driver.d_solution in
      let expect =
        [ ("cost", s.Solution.cost); ("area", s.Solution.area); ("enc", s.Solution.enc);
          ("vdd", s.Solution.vdd) ]
        |> List.map (fun (k, v) -> (k, Wire.to_string (Wire.Num v)))
      in
      if answer_fields json <> expect then fail "serve: miss answer differs from a cold synthesis")
    | _ -> ()
  in
  (* Latency by response class, and the highest percentile that still has
     ten requests beyond it. *)
  let summary_rows lp outs =
    let lat (name, cls) =
      match List.filter (fun o -> classify o = cls) outs with
      | [] -> []
      | os -> [ (name, 1e3 *. Stats.median (List.map (fun o -> scaled o.o_span) os), "ms") ]
    in
    let tail =
      let lat = List.map (fun r -> r.ref_s) lp.requests in
      match Stats.tail_percentile (List.length lat) with
      | None -> []
      | Some p -> [ (Printf.sprintf "req_p%g_ms" p, 1e3 *. Stats.percentile lat p, "ms") ]
    in
    List.concat_map lat [ ("hit_p50_ms", `Hit); ("miss_p50_ms", `Miss) ] @ tail
  in
  if not !traced then begin
    (* One warm-up batch, checked but not timed: the first misses near
       laxity 2.0 find the frag tier cold. *)
    ignore (run_batch 0);
    rss := [];
    let lp = closed_loop ~clients:2 ~batch_s:2.5 (fun b -> run_batch (b + 1)) in
    let outs = !outcomes in
    List.iter check outs;
    check_pairs outs;
    check_one_miss outs;
    (* Quality of the fixed set-up answers: how many misses a run makes
       follows how many batches fit in it, theirs does not. *)
    let costs =
      List.filter_map
        (fun fields -> Option.map float_of_string (List.assoc_opt "cost" fields))
        answers
    in
    let metrics =
      loop_metrics ~setup_s:(setup_s ()) ~rss:(Stats.median !rss) lp
      @ [ metric "design_cost_geomean" (Stats.geomean costs) "cost" ]
    in
    print_summary metrics lp (summary_rows lp outs);
    print_result metrics
  end
  else begin
    (* One untraced batch, then one traced batch (same mix, fresh misses);
       the per-request spans come from the clients' own timestamps.  Both
       daemons are pinged and asked for their store counters before they
       stop; the traced batch's answers are kept. *)
    let probed = ref ([], Wire.Null) in
    let last d =
      let pings =
        List.init 20 (fun _ ->
            snd (timed (fun () -> ignore (call d.control (Wire.Obj [ ("op", Wire.Str "ping") ])))))
      in
      match call d.control (Wire.Obj [ ("op", Wire.Str "cache-stats") ]) with
      | Ok json -> probed := (pings, json)
      | Error e -> failwith ("cache-stats failed: " ^ e)
    in
    let _, t_untraced = timed (fun () -> run_batch ~last 0) in
    let _, t_traced =
      timed (fun () ->
          let spans = run_batch ~last 1 in
          List.iter
            (fun (_, (start, stop)) ->
              Trace.new_request ();
              Trace.add ~name:"serve.request" ~start ~stop)
            spans)
    in
    let pings, stats = !probed in
    let num path json =
      List.fold_left (fun j k -> Option.bind j (Wire.member k)) (Some json) path
      |> fun j -> Option.value (Option.bind j Wire.num) ~default:0.
    in
    let tier ns =
      let h = num [ "tiers"; ns; "hits" ] stats and m = num [ "tiers"; ns; "misses" ] stats in
      (Printf.sprintf "store.%s.hit_ratio" ns, if h +. m = 0. then 0. else h /. (h +. m))
    in
    let outs = !outcomes in
    let warm = List.length (List.filter (fun o -> classify o = `Hit) outs) in
    List.iter check outs;
    check_pairs outs;
    (* In-process probes on the filled store: the raw find, and a warm
       Driver call on the same key (find + decode + rebuild + cross-check). *)
    let store = Store.open_store ~dir:store_dir () in
    let options = { Driver.default_options with seed = request_seed () } in
    let laxity = List.hd serve_laxities in
    List.iter
      (fun target ->
        let bench = Suite.find target in
        let program = Suite.program bench in
        let workload = bench.Suite.workload ~seed:(request_seed ()) ~passes:serve_passes in
        List.iter
          (fun objective ->
            let key = Driver.design_key ~options program ~workload ~objective ~laxity in
            Trace.new_request ();
            if Trace.with_span "store.find" (fun () -> Store.find store key) = None then
              fail "serve: set-up answer for %s missing from the store" target;
            ignore
              (Trace.with_span "store.warm_synthesize" (fun () ->
                   Driver.synthesize ~options ~store program ~workload ~objective ~laxity ())))
          [ Solution.Minimize_power; Solution.Minimize_area ])
      serve_targets;
    let find_ms = Trace.per_call_ms "store.find" in
    let store_metrics =
      [
        ("store.find_ms", find_ms);
        ("store.warm_rebuild_ms", Trace.per_call_ms "store.warm_synthesize" -. find_ms);
        ("store.writes", num [ "writes" ] stats);
        ("store.bytes", num [ "bytes" ] stats);
        ("store.evicted", num [ "evicted" ] stats);
        ("serve.ping_ms", 1e3 *. Stats.median pings);
        ("serve.coalesced", num [ "coalesced" ] stats);
        ("serve.warm_frac", float_of_int warm /. float_of_int (max 1 (List.length outs)));
      ]
      @ List.map tier [ "design"; "sim"; "traces"; "lib"; "frag" ]
    in
    write_spans ();
    print_result
      (layer_metrics ~store:store_metrics ~overhead:((t_traced /. t_untraced) -. 1.) (counters ())
         (engine_totals ()))
  end

(* --- Main ---------------------------------------------------------------- *)

let () =
  parse_args ();
  let run =
    match !workload_name with
    | "sweep-cold" -> sweep_cold
    | "synth-longtrace" -> synth_longtrace
    | "serve-mixed" -> serve_mixed
    | _ -> usage ()
  in
  if not (Sys.file_exists !cli) then begin
    Printf.eprintf "perfbench: %s not found (build it first)\n" !cli;
    exit 2
  end;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  mkdir_p run_dir;
  Hostspeed.start ();
  Fun.protect
    ~finally:(fun () ->
      Hostspeed.stop ();
      reap_daemons ();
      rm_rf run_dir)
    run
