(* The IMPACT command-line front end: simulate, synth, sweep, report, dump,
   lint, analyze, bench-list, cache, serve and request.  [impact_cli
   COMMAND --help] lists a command's options; the request options (objective,
   laxity, laxities, clock, passes, seed) are {!Request}'s fields. *)

module Graph = Impact_cdfg.Graph
module Pretty = Impact_cdfg.Pretty
module Elaborate = Impact_lang.Elaborate
module Parser = Impact_lang.Parser
module Typecheck = Impact_lang.Typecheck
module Interp = Impact_lang.Interp
module Sim = Impact_sim.Sim
module Stg = Impact_sched.Stg
module Datapath = Impact_rtl.Datapath
module Measure = Impact_power.Measure
module Breakdown = Impact_power.Breakdown
module Bitvec = Impact_util.Bitvec
module Table = Impact_util.Table
module Parallel = Impact_util.Parallel
module Suite = Impact_benchmarks.Suite
module Diagnostic = Impact_util.Diagnostic
module Solution = Impact_core.Solution
module Driver = Impact_core.Driver
module Request = Impact_core.Request
module Moves = Impact_core.Moves
module Search = Impact_core.Search
module Store = Impact_store.Store
open Cmdliner

(* Target loading lives in Cli_common, shared with the serve daemon. *)
open Cli_common

let target_conv =
  let parse spec = match load_target spec with Ok t -> Ok t | Error e -> Error (`Msg e) in
  Arg.conv (parse, fun ppf t -> Format.pp_print_string ppf t.tg_name)

let design_arg of_spec =
  Arg.(
    required
    & pos 0 (some of_spec) None
    & info [] ~docv:"DESIGN" ~doc:"A behavioral source file or bench:NAME.")

let target_arg = design_arg target_conv

(* The DESIGN of the commands that load it themselves (lint, analyze), so a
   bad one is a diagnostic or a usage message, not a cmdliner error. *)
let spec_arg = design_arg Arg.string

(* Every output file goes through here: [contents] is written to [path] and
   reported as "wrote PATH" followed by [detail].  An unwritable path is an
   ordinary error (exit 1), not a crash. *)
let write_output ?(detail = "") path contents =
  match Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc contents) with
  | () -> Printf.printf "wrote %s%s\n" path detail
  | exception Sys_error msg ->
    let prefix = path ^ ": " in
    let reason =
      if String.starts_with ~prefix msg then
        String.sub msg (String.length prefix) (String.length msg - String.length prefix)
      else msg
    in
    Printf.eprintf "cannot write %s: %s\n" path reason;
    exit 1

(* A design that does not terminate under its workload is a one-line
   diagnostic and exit 1, not an uncaught exception. *)
let guarded target f =
  match f () with
  | v -> v
  | exception e -> (
    match Request.failure e with
    | Some (_, msg) ->
      Printf.eprintf "%s: %s\n" target.tg_name msg;
      exit 1
    | None -> raise e)

(* --- Common options --------------------------------------------------------- *)

(* A request option is a thin conv over its {!Request} field: the conv
   checks the value's domain, so a bad value is a usage error naming the
   option, and passes the raw value on.  [request_term] hands the command's
   design and the options given to {!Request.validate}, which fills in the
   defaults and builds the one request value every command reads. *)
let field_arg field ~doc =
  let parse s =
    let raw = Request.of_arg field s in
    match Request.check field raw with
    | Ok _ -> Ok (Request.name field, raw)
    | Error e -> Error (`Msg (Request.message e))
  in
  Arg.(
    value
    & opt (some (conv (parse, fun ppf (_, raw) -> Request.pp_raw ppf raw))) None
    & info [ Request.name field ] ~doc:(Printf.sprintf "%s: %s." doc (Request.doc field)))

let request_term design ~spec options =
  let given =
    List.fold_right
      (fun arg rest -> Term.(const (fun f fs -> Option.to_list f @ fs) $ arg $ rest))
      options (Term.const [])
  in
  let validate d given =
    match Request.validate ((Request.name Request.target, Request.Text (spec d)) :: given) with
    | Ok r -> `Ok (d, r)
    | Error e -> `Error (false, Request.message e)
  in
  Term.(ret (const validate $ design $ given))

let objective_arg = field_arg Request.objective ~doc:"Optimization objective"

let laxity_arg =
  field_arg Request.laxity
    ~doc:"ENC laxity factor, the multiple of the minimum ENC the search may spend"

let laxities_arg = field_arg Request.laxities ~doc:"Comma-separated laxity factors"
let clock_arg = field_arg Request.clock ~doc:"Designer clock period in ns"
let passes_arg = field_arg Request.passes ~doc:"Workload passes"
let seed_arg = field_arg Request.seed ~doc:"Workload and search seed"

let design_request options = request_term target_arg ~spec:(fun t -> t.tg_spec) options

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "jobs"; "j" ]
        ~doc:
          "Evaluation concurrency (OCaml domains): sweep points fan out \
           when the machine has more than one core.  0 auto-detects; \
           results are identical for any value.")

let cache_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ]
        ~doc:
          "Persist solved results in a content-addressed store at this \
           directory and answer repeat requests from it (bit-identical to a \
           cold run).  Defaults to IMPACT_CACHE_DIR when that is set; unset \
           means no persistence.")

let inputs_arg =
  Arg.(
    value
    & opt_all (pair ~sep:'=' string int) []
    & info [ "input"; "i" ] ~docv:"NAME=VALUE" ~doc:"Input binding (repeatable).")

(* An output file, written by [write_output]. *)
let output_arg name ~doc = Arg.(value & opt (some string) None & info [ name ] ~doc)

let dot_cdfg_arg = output_arg "dot-cdfg" ~doc:"Write CDFG dot file."
let dot_stg_arg = output_arg "dot-stg" ~doc:"Write STG dot file."
let dot_datapath_arg = output_arg "dot-datapath" ~doc:"Write the synthesized datapath as a dot file."
let verilog_arg = output_arg "verilog" ~doc:"Write the synthesized design as Verilog."

let optimize_arg =
  Arg.(value & flag & info [ "optimize"; "O" ] ~doc:"Run the frontend optimizer first.")

let unroll_arg =
  Arg.(value & flag & info [ "unroll" ] ~doc:"Fully unroll small counted loops first.")

let vcd_arg =
  output_arg "vcd" ~doc:"Dump an RTL-simulation waveform (VCD) over the workload."

let testbench_arg =
  output_arg "testbench"
    ~doc:"Write a self-checking Verilog testbench (expected values from the interpreter)."

let prepared_program target opt unroll =
  if not (opt || unroll) then target.tg_program
  else begin
    let typed = Typecheck.check (Parser.parse target.tg_source) in
    let typed = if unroll then Impact_lang.Unroll.unroll typed else typed in
    let typed = if opt || unroll then Impact_lang.Optimize.optimize typed else typed in
    Elaborate.program typed
  end

(* --- simulate ----------------------------------------------------------------- *)

let simulate_cmd =
  let run target inputs =
    guarded target @@ fun () ->
    let typed = Typecheck.check (Parser.parse target.tg_source) in
    let missing =
      List.filter
        (fun (name, _) -> not (List.mem_assoc name inputs))
        target.tg_program.Graph.prog_inputs
    in
    if missing <> [] then begin
      Printf.eprintf "missing inputs: %s\n"
        (String.concat ", " (List.map fst missing));
      exit 1
    end;
    (* The CDFG simulation runs first: its bound is per loop, so a loop that
       never exits is named. *)
    let sim = Sim.simulate target.tg_program ~workload:[ inputs ] in
    let out = Interp.run typed ~inputs in
    let t = Table.create ~title:(target.tg_name ^ " outputs")
        [ ("output", Table.Left); ("interpreter", Table.Right); ("cdfg-sim", Table.Right) ]
    in
    List.iter
      (fun (name, v) ->
        let sim_v = List.assoc name sim.Sim.pass_outputs.(0) in
        Table.add_row t
          [ name; string_of_int (Bitvec.to_signed v); string_of_int (Bitvec.to_signed sim_v) ])
      out.Interp.results;
    Table.print t
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run the interpreter and the CDFG simulator on one input.")
    Term.(const run $ target_arg $ inputs_arg)

(* --- synth --------------------------------------------------------------------- *)

let print_design target design workload =
  let sol = design.Driver.d_solution in
  Printf.printf "design %s (%s, laxity %.2f)\n" target.tg_name
    (match design.Driver.d_objective with
    | Solution.Minimize_power -> "power-optimized"
    | Solution.Minimize_area -> "area-optimized")
    design.Driver.d_laxity;
  Printf.printf "  %s\n" (Solution.describe sol);
  Printf.printf "  enc_min %.2f, budget %.2f, achieved %.2f\n" design.Driver.d_enc_min
    design.Driver.d_enc_budget sol.Solution.enc;
  Printf.printf "  moves applied: %s\n"
    (match design.Driver.d_search.Search.moves_applied with
    | [] -> "(none)"
    | ms -> String.concat " " (List.map Moves.describe ms));
  let m = Driver.measure design target.tg_program ~workload () in
  Printf.printf "  measured at %.2f V: power %.4f (enc %.1f cycles)\n" sol.Solution.vdd
    m.Measure.m_power m.Measure.m_mean_cycles;
  Format.printf "  breakdown: %a@." Breakdown.pp m.Measure.m_breakdown

let synth_cmd =
  let run (target, (r : Request.t)) cache_dir dot_cdfg dot_stg dot_dp verilog opt unroll vcd tb =
    guarded target @@ fun () ->
    let program = prepared_program target opt unroll in
    let workload = workload target r in
    let store = store_of ?cache_dir () in
    let design =
      Driver.synthesize ~options:r.options ?store program ~workload ~objective:r.objective
        ~laxity:r.laxity ()
    in
    print_design { target with tg_program = program } design workload;
    let sol = design.Driver.d_solution in
    Option.iter (fun path -> write_output path (Pretty.to_dot program)) dot_cdfg;
    Option.iter (fun path -> write_output path (Stg.to_dot sol.Solution.stg)) dot_stg;
    Option.iter (fun path -> write_output path (Datapath.to_dot sol.Solution.dp)) dot_dp;
    Option.iter
      (fun path ->
        write_output path
          (Impact_rtl.Verilog.emit program sol.Solution.stg sol.Solution.binding))
      verilog;
    Option.iter
      (fun path ->
        let recording, _ =
          Impact_rtl.Vcd.capture program sol.Solution.stg sol.Solution.binding ~workload
        in
        write_output path (Impact_rtl.Vcd.render recording)
          ~detail:(Printf.sprintf " (%d value changes)" (Impact_rtl.Vcd.change_count recording)))
      vcd;
    Option.iter
      (fun path ->
        let typed = Typecheck.check (Parser.parse target.tg_source) in
        let vectors =
          List.filteri (fun i _ -> i < 10) workload
          |> List.map (fun inputs ->
                 let out = Interp.run typed ~inputs in
                 ( inputs,
                   List.map
                     (fun (n, v) -> (n, Bitvec.to_signed v))
                     out.Interp.results ))
        in
        write_output path (Impact_rtl.Verilog.emit_testbench program ~vectors))
      tb
  in
  Cmd.v
    (Cmd.info "synth" ~doc:"Synthesize a design with the IMPACT algorithm.")
    Term.(
      const run
      $ design_request [ objective_arg; laxity_arg; clock_arg; passes_arg; seed_arg ]
      $ cache_dir_arg $ dot_cdfg_arg $ dot_stg_arg
      $ dot_datapath_arg $ verilog_arg $ optimize_arg $ unroll_arg $ vcd_arg
      $ testbench_arg)

(* --- sweep ---------------------------------------------------------------------- *)

let csv_arg = output_arg "csv" ~doc:"Also write the sweep as CSV."

let sweep_cmd =
  let run (target, (r : Request.t)) jobs cache_dir csv =
    guarded target @@ fun () ->
    let workload = workload target r in
    let store = store_of ?cache_dir () in
    let sweep =
      Parallel.with_jobs jobs (fun pool ->
          Driver.figure13 ~options:r.options ?pool ?store target.tg_program ~workload
            ~laxities:r.laxities)
    in
    let t =
      Table.create
        ~title:(Printf.sprintf "%s: normalized power and area vs laxity" target.tg_name)
        [
          ("laxity", Table.Right);
          ("A-Power", Table.Right);
          ("I-Power", Table.Right);
          ("I-Area", Table.Right);
        ]
    in
    List.iter
      (fun p ->
        Table.add_float_row t
          (Printf.sprintf "%.2f" p.Driver.sp_laxity)
          [ p.Driver.sp_a_power; p.Driver.sp_i_power; p.Driver.sp_i_area ])
      sweep.Driver.sw_points;
    Table.print t;
    Option.iter
      (fun path ->
        write_output path
          (String.concat ""
             ("laxity,a_power,i_power,i_area,a_vdd,i_vdd\n"
             :: List.map
                  (fun p ->
                    Printf.sprintf "%.2f,%.6f,%.6f,%.6f,%.3f,%.3f\n" p.Driver.sp_laxity
                      p.Driver.sp_a_power p.Driver.sp_i_power p.Driver.sp_i_area
                      p.Driver.sp_a_vdd p.Driver.sp_i_vdd)
                  sweep.Driver.sw_points)))
      csv
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Reproduce the paper's laxity sweep for one design.")
    Term.(
      const run
      $ design_request [ laxities_arg; clock_arg; passes_arg; seed_arg ]
      $ jobs_arg $ cache_dir_arg $ csv_arg)

(* --- dump ------------------------------------------------------------------------ *)

let dump_cmd =
  let run target dot_cdfg =
    let g = target.tg_program.Graph.graph in
    Printf.printf "%s: %d nodes, %d edges, inputs [%s], outputs [%s]\n" target.tg_name
      (Graph.node_count g) (Graph.edge_count g)
      (String.concat ", " (List.map fst target.tg_program.Graph.prog_inputs))
      (String.concat ", " (List.map fst target.tg_program.Graph.prog_outputs));
    Format.printf "%a@." (Pretty.pp_region g) target.tg_program.Graph.top;
    Option.iter (fun path -> write_output path (Pretty.to_dot target.tg_program)) dot_cdfg
  in
  Cmd.v
    (Cmd.info "dump" ~doc:"Print CDFG statistics and optionally a dot rendering.")
    Term.(const run $ target_arg $ dot_cdfg_arg)

let report_cmd =
  let run (target, (r : Request.t)) opt unroll =
    guarded target @@ fun () ->
    let program = prepared_program target opt unroll in
    let workload = workload target r in
    let design =
      Driver.synthesize ~options:r.options program ~workload ~objective:r.objective
        ~laxity:r.laxity ()
    in
    Impact_core.Report.print design program ~workload
  in
  Cmd.v
    (Cmd.info "report" ~doc:"Synthesize and print a full design report.")
    Term.(
      const run
      $ design_request [ objective_arg; laxity_arg; clock_arg; passes_arg; seed_arg ]
      $ optimize_arg $ unroll_arg)

(* --- lint ------------------------------------------------------------------------ *)

let lint_cmd =
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit diagnostics as a JSON array instead of one line each.")
  in
  (* lint owns its loading (instead of [target_conv]) so front-end failures
     surface as ordinary diagnostics with the documented exit code 1, not as
     a cmdliner argument-parse error.  The pipeline itself lives in
     {!Cli_common.lint_target}, shared with the serve daemon. *)
  let run (_, r) json =
    match lint_target r with
    | Error msg ->
      Printf.eprintf "%s\n" msg;
      exit 2
    | Ok (name, diags) ->
      if json then print_endline (Diagnostic.render_json diags)
      else begin
        if diags <> [] then print_endline (Diagnostic.render_text diags);
        Printf.printf "%s: %d error(s), %d warning(s)\n" name
          (Diagnostic.count Diagnostic.Error diags)
          (Diagnostic.count Diagnostic.Warning diags)
      end;
      exit (if Diagnostic.has_errors diags then 1 else 0)
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Run the cross-layer static verifier over a design: language lint, \
          CDFG validation, schedule, binding, interconnect and power checks \
          on the initial solution.  Exits 0 when no error-severity \
          diagnostics are found (warnings are allowed), 1 otherwise.")
    Term.(
      const run
      $ request_term spec_arg ~spec:Fun.id [ clock_arg; passes_arg; seed_arg ]
      $ json_arg)

(* --- analyze --------------------------------------------------------------- *)

let analyze_cmd =
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the per-edge facts as one JSON object instead of a table.")
  in
  (* Like lint, analyze owns its loading so a bad target exits 2 with a
     usage-style message instead of a cmdliner parse error. *)
  let run spec json =
    match Cli_common.load_target spec with
    | Error msg ->
      Printf.eprintf "%s\n" msg;
      exit 2
    | Ok tg ->
      let module Ranges = Impact_cdfg.Ranges in
      let module Ir = Impact_cdfg.Ir in
      let analysis = Ranges.analyze tg.Cli_common.tg_program in
      if json then print_endline (Ranges.dump_json analysis)
      else begin
        let g = tg.Cli_common.tg_program.Impact_cdfg.Graph.graph in
        Printf.printf "%s: %d edges\n" tg.Cli_common.tg_name
          (Impact_cdfg.Graph.edge_count g);
        Impact_cdfg.Graph.iter_edges g ~f:(fun e ->
            let eid = e.Ir.e_id in
            match Ranges.edge_fact analysis eid with
            | Ranges.Bot -> Printf.printf "  e%-4d int%-3d unreachable\n" eid e.Ir.e_width
            | Ranges.Fact f ->
              Printf.printf "  e%-4d int%-3d [%d,%d] active=%d\n" eid e.Ir.e_width
                f.Ranges.f_lo f.Ranges.f_hi
                (Ranges.active_bits (Ranges.Fact f) ~width:e.Ir.e_width));
        let ds = Ranges.diagnostics analysis in
        if ds <> [] then print_endline (Diagnostic.render_text ds)
      end;
      exit 0
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Run the interval/known-bits range analysis over a design and dump \
          the per-edge facts (interval, known bits, active width) plus any \
          range/* findings.  Exits 2 on a usage error, 0 otherwise.")
    Term.(const run $ spec_arg $ json_arg)

(* --- cache ----------------------------------------------------------------- *)

let cache_cmd =
  let action_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"ACTION" ~doc:"stats, clear or gc.")
  in
  let max_bytes_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-bytes" ] ~doc:"Byte cap used by gc (and reported by stats).")
  in
  (* Like lint, cache owns its action validation so a bad action exits with
     the documented usage code 2 instead of a cmdliner parse error. *)
  let run action cache_dir max_bytes =
    let dir =
      match cache_dir with Some d -> d | None -> Store.default_dir ()
    in
    let store = Store.open_store ~dir ?max_bytes () in
    match action with
    | "stats" ->
      let s = Store.stats store in
      Printf.printf "store %s: %d object(s), %s (cap %s)\n" dir s.Store.st_entries
        (Store.human_bytes s.Store.st_bytes)
        (Store.human_bytes (Store.max_bytes store));
      List.iter
        (fun (ns, t) ->
          Printf.printf "  %-7s %d object(s), %s, %d hit(s), %d miss(es), %d write(s)\n"
            ns t.Store.ts_entries
            (Store.human_bytes t.Store.ts_bytes)
            t.Store.ts_hits t.Store.ts_misses t.Store.ts_writes)
        s.Store.st_tiers;
      exit 0
    | "clear" ->
      Printf.printf "cleared %d object(s)\n" (Store.clear store);
      exit 0
    | "gc" ->
      let evicted, tiers = Store.gc_report store in
      let reclaimed =
        List.fold_left (fun acc t -> acc + t.Store.gt_bytes) 0 tiers
      in
      Printf.printf "evicted %d object(s), reclaimed %s\n" evicted
        (Store.human_bytes reclaimed);
      List.iter
        (fun t ->
          Printf.printf "  %-7s %d object(s), %s\n" t.Store.gt_ns t.Store.gt_evicted
            (Store.human_bytes t.Store.gt_bytes))
        tiers;
      exit 0
    | other ->
      Printf.eprintf "unknown cache action %s (try: stats, clear, gc)\n" other;
      exit 2
  in
  Cmd.v
    (Cmd.info "cache"
       ~doc:
         "Inspect or maintain the persistent result store: stats (objects, \
          bytes, cap, per-tier breakdown), clear (remove everything), gc \
          (evict objects in write order, oldest first, down to the byte \
          cap).  Exits 0 on success, 2 on usage errors.")
    Term.(const run $ action_arg $ cache_dir_arg $ max_bytes_arg)

(* --- serve / request -------------------------------------------------------- *)

let socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

let serve_cmd =
  let run socket cache_dir jobs =
    Serve_impl.serve ~socket_path:socket ?cache_dir ~jobs ()
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run a synthesis daemon on a Unix-domain socket: concurrent \
          synthesize/sweep/lint requests (length-prefixed JSON frames) share \
          one in-memory and on-disk tiered store, so repeated requests are \
          answered warm without re-entering the search.  Distinct heavy \
          requests run concurrently up to the physical core count; identical \
          in-flight requests coalesce into one computation (followers' \
          results carry coalesced:true).  The store directory defaults to \
          --cache-dir, then IMPACT_CACHE_DIR, then the user cache \
          directory.")
    Term.(const run $ socket_arg $ cache_dir_arg $ jobs_arg)

let request_cmd =
  let payload_arg =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"JSON" ~doc:"Request objects, one frame each.")
  in
  let run socket payloads = exit (Serve_impl.request ~socket_path:socket payloads) in
  Cmd.v
    (Cmd.info "request"
       ~doc:
         "Send JSON requests to a running serve daemon and print every \
          response frame (progress events and results), one per line.  Exits \
          0 when every result reports ok, 1 otherwise, 2 on connection or \
          usage errors.")
    Term.(const run $ socket_arg $ payload_arg)

let bench_list_cmd =
  let run () =
    print_endline "paper benchmarks:";
    List.iter
      (fun b -> Printf.printf "  %-10s %s\n" b.Suite.bench_name b.Suite.description)
      Suite.all;
    print_endline "extended benchmarks:";
    List.iter
      (fun b -> Printf.printf "  %-10s %s\n" b.Suite.bench_name b.Suite.description)
      Suite.extended
  in
  Cmd.v (Cmd.info "bench-list" ~doc:"List the built-in benchmarks.") Term.(const run $ const ())

let () =
  let info =
    Cmd.info "impact_cli" ~version:"1.0.0"
      ~doc:"IMPACT: low-power high-level synthesis for control-flow intensive circuits"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            simulate_cmd;
            synth_cmd;
            sweep_cmd;
            dump_cmd;
            report_cmd;
            lint_cmd;
            analyze_cmd;
            bench_list_cmd;
            cache_cmd;
            serve_cmd;
            request_cmd;
          ]))
