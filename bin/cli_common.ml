(* Target loading and analysis plumbing shared by the command-line front
   end and the serve daemon. *)

module Graph = Impact_cdfg.Graph
module Elaborate = Impact_lang.Elaborate
module Parser = Impact_lang.Parser
module Typecheck = Impact_lang.Typecheck
module Rng = Impact_util.Rng
module Suite = Impact_benchmarks.Suite
module Diagnostic = Impact_util.Diagnostic
module Verify = Impact_verify.Verify
module Solution = Impact_core.Solution
module Driver = Impact_core.Driver
module Store = Impact_store.Store

(* --- Loading a design: file path or "bench:NAME" -------------------------- *)

type target = {
  tg_name : string;
  tg_source : string;
  tg_program : Graph.program;
  tg_workload : seed:int -> passes:int -> (string * int) list list;
}

let random_workload program ~seed ~passes =
  let rng = Rng.create ~seed in
  List.init passes (fun _ ->
      List.map
        (fun (name, width) ->
          let bound = min (1 lsl (width - 1)) 4096 in
          (name, Rng.int_in rng 0 (bound - 1)))
        program.Graph.prog_inputs)

(* [Sys.file_exists] is true for directories too, and slurping a directory
   fd raises a platform-dependent [Sys_error]; reject anything that is not
   a readable regular file with a deterministic usage-level message. *)
let read_design_file spec =
  if not (Sys.file_exists spec) then
    Error (Printf.sprintf "no such file: %s (use bench:NAME for built-ins)" spec)
  else if Sys.is_directory spec then
    Error (Printf.sprintf "%s is a directory, not a design file" spec)
  else
    match
      let ic = open_in spec in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with
    | source -> Ok source
    | exception Sys_error msg -> Error (Printf.sprintf "cannot read %s: %s" spec msg)

(* The NAME of a "bench:NAME" spec, which names a built-in benchmark; any
   other spec is a design file. *)
let bench_name spec =
  if String.length spec > 6 && String.sub spec 0 6 = "bench:" then
    Some (String.sub spec 6 (String.length spec - 6))
  else None

let find_spec spec =
  match bench_name spec with
  | Some name -> (
    match Suite.find name with
    | bench -> Ok (`Bench (name, bench))
    | exception Not_found ->
      Error
        (Printf.sprintf "unknown benchmark %s (try: %s)" name
           (String.concat ", " (List.map (fun b -> b.Suite.bench_name) Suite.all_extended))))
  | None -> Result.map (fun source -> `File source) (read_design_file spec)

let file_name spec = Filename.remove_extension (Filename.basename spec)

let load_target spec =
  match find_spec spec with
  | Error msg -> Error msg
  | Ok (`Bench (name, bench)) ->
    Ok
      {
        tg_name = name;
        tg_source = bench.Suite.source;
        tg_program = Suite.program bench;
        tg_workload = bench.Suite.workload;
      }
  | Ok (`File source) -> (
    match Elaborate.from_source source with
    | program ->
      Ok
        {
          tg_name = file_name spec;
          tg_source = source;
          tg_program = program;
          tg_workload = (fun ~seed ~passes -> random_workload program ~seed ~passes);
        }
    | exception Impact_lang.Lexer.Error (msg, pos) ->
      Error (Format.asprintf "lexical error at %a: %s" Impact_lang.Ast.pp_pos pos msg)
    | exception Impact_lang.Parser.Error (msg, pos) ->
      Error (Format.asprintf "syntax error at %a: %s" Impact_lang.Ast.pp_pos pos msg)
    | exception Impact_lang.Typecheck.Error (msg, pos) ->
      Error (Format.asprintf "type error at %a: %s" Impact_lang.Ast.pp_pos pos msg)
    | exception Failure msg -> Error msg)

(* --- Persistent store activation ------------------------------------------ *)

(* An explicit [--cache-dir] always activates the store; otherwise the
   [IMPACT_CACHE_DIR] environment variable both activates it and names the
   directory.  Unset means no persistence — one-shot CLI runs do not write
   to the user's cache unless asked. *)
let store_of ?cache_dir () =
  match cache_dir with
  | Some dir -> Some (Store.open_store ~dir ())
  | None -> (
    match Sys.getenv_opt "IMPACT_CACHE_DIR" with
    | Some d when d <> "" -> Some (Store.open_store ~dir:d ())
    | _ -> None)

(* --- Lint ------------------------------------------------------------------ *)

(* The full cross-layer verification pipeline behind [impact_cli lint] and
   the serve daemon's lint op.  [Error] is a usage-level failure (unknown
   benchmark, missing file); front-end failures surface as ordinary
   diagnostics in [Ok]. *)
let lint_target spec ~clock ~passes ~seed =
  let front_error name rule pos msg =
    Diagnostic.error ~rule
      ~path:(Printf.sprintf "%s/lang/line %d" name pos.Impact_lang.Ast.line)
      "%s" msg
  in
  let load =
    match find_spec spec with
    | Error msg -> Error msg
    | Ok (`Bench (n, bench)) ->
      Ok (n, bench.Suite.source, fun _ -> bench.Suite.workload ~seed ~passes)
    | Ok (`File source) ->
      Ok (file_name spec, source, fun program -> random_workload program ~seed ~passes)
  in
  match load with
  | Error msg -> Error msg
  | Ok (name, source, workload_of) ->
    let diags =
      match Parser.parse source with
      | exception Impact_lang.Lexer.Error (msg, pos) ->
        [ front_error name "lang/lex-error" pos msg ]
      | exception Impact_lang.Parser.Error (msg, pos) ->
        [ front_error name "lang/parse-error" pos msg ]
      | ast -> (
        let lang_diags = Verify.run_all (Verify.input ~name ~source:ast ()) in
        match Typecheck.check ast with
        | exception Impact_lang.Typecheck.Error (msg, pos) ->
          lang_diags @ [ front_error name "lang/type-error" pos msg ]
        | typed -> (
          match Elaborate.program typed with
          | exception Failure msg ->
            lang_diags
            @ [
                Diagnostic.error ~rule:"cdfg/elaborate-error" ~path:(name ^ "/cdfg")
                  "%s" msg;
              ]
          | program -> (
            (* Build the initial (parallel, minimum-latency) solution exactly
               like [Driver.synthesize] would, then run every analyzer over
               it; the source AST rides along so the language lint reports
               too. *)
            match
              let env, _enc_min =
                Driver.build_env
                  ~options:{ Driver.default_options with clock_ns = clock; seed }
                  program ~workload:(workload_of program)
                  ~objective:Solution.Minimize_power ~laxity:2.0
              in
              (env, Solution.initial env)
            with
            | exception Failure msg ->
              lang_diags
              @ [
                  Diagnostic.error ~rule:"core/synthesis-error" ~path:(name ^ "/core")
                    "%s" msg;
                ]
            | env, sol -> lang_diags @ Solution.diagnostics env sol)))
    in
    Ok (name, diags)
