(* The cross-layer verification framework:
   - every paper benchmark is clean at every stage (lang lint through the
     power checks on the initial solution);
   - a full search under IMPACT_CHECK (every runtime oracle, the verify
     oracle among them) verifies every accepted move, raises on nothing,
     and leaves the trajectory bit-identical to the unchecked run;
   - hand-corrupted bindings, mux trees and netlists each trip the intended
     rule. *)

module Graph = Impact_cdfg.Graph
module Parser = Impact_lang.Parser
module Lint = Impact_lang.Lint
module Stg = Impact_sched.Stg
module Binding = Impact_rtl.Binding
module Binding_check = Impact_rtl.Binding_check
module Datapath = Impact_rtl.Datapath
module Rtl_check = Impact_rtl.Rtl_check
module Muxnet = Impact_rtl.Muxnet
module Suite = Impact_benchmarks.Suite
module Diagnostic = Impact_util.Diagnostic
module Oracle = Impact_util.Oracle
module Verify = Impact_verify.Verify
module Solution = Impact_core.Solution
module Search = Impact_core.Search
module Driver = Impact_core.Driver
module Moves = Impact_core.Moves

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let passes = 12

let build bench =
  let prog = Suite.program bench in
  let workload = bench.Suite.workload ~seed:1 ~passes in
  let options =
    { Driver.default_options with clock_ns = bench.Suite.clock_ns }
  in
  let env, _enc_min =
    Driver.build_env ~options prog ~workload
      ~objective:Solution.Minimize_power ~laxity:2.0
  in
  (env, Solution.initial env)

let rules ds = List.map (fun d -> d.Diagnostic.rule) ds
let has_rule rule ds = List.mem rule (rules ds)

(* --- every benchmark verifies clean at every stage ----------------------- *)

let test_clean bench () =
  let env, sol = build bench in
  let ast = Parser.parse bench.Suite.source in
  let diags =
    Verify.run_all (Verify.input ~name:bench.Suite.bench_name ~source:ast ())
    @ Solution.diagnostics env sol
  in
  Alcotest.(check (list string))
    "no error diagnostics" []
    (List.map Diagnostic.to_string (Diagnostic.errors diags))

(* --- verify-each gating over a full search ------------------------------- *)

let synthesize bench =
  let prog = Suite.program bench in
  let workload = bench.Suite.workload ~seed:1 ~passes in
  let options = { Driver.default_options with clock_ns = bench.Suite.clock_ns } in
  Driver.synthesize ~options prog ~workload ~objective:Solution.Minimize_power
    ~laxity:2.0 ()

let with_check f =
  Unix.putenv "IMPACT_CHECK" "1";
  Fun.protect ~finally:(fun () -> Unix.putenv "IMPACT_CHECK" "0") f

(* All oracles never change a result.  Under IMPACT_CHECK the ledger,
   schedule, range and verify oracles run on every synthesis (the store
   oracle needs a store; test_store runs it): the verify oracle
   re-verifies the start point and every feasible solution of each
   accepted move sequence, and any oracle's disagreement raises, so mere
   completion means every figure re-derived another way agreed.  The
   trajectory must not change: the checked run's moves and final figures
   are bit-identical. *)
let test_verify_each bench () =
  Unix.putenv "IMPACT_CHECK" "0";
  let off = synthesize bench in
  let on_ = with_check (fun () -> synthesize bench) in
  let moves d =
    List.map Moves.describe d.Driver.d_search.Search.moves_applied
  in
  check_bool "unchecked run verifies nothing" true
    (off.Driver.d_search.Search.verified_accepts = 0);
  Alcotest.(check (list string)) "same moves" (moves off) (moves on_);
  Alcotest.(check (float 0.)) "same cost" off.Driver.d_solution.Solution.cost
    on_.Driver.d_solution.Solution.cost;
  Alcotest.(check (float 0.)) "same enc" off.Driver.d_solution.Solution.enc
    on_.Driver.d_solution.Solution.enc;
  Alcotest.(check (float 0.)) "same vdd" off.Driver.d_solution.Solution.vdd
    on_.Driver.d_solution.Solution.vdd;
  Alcotest.(check (float 0.)) "same area" off.Driver.d_solution.Solution.area
    on_.Driver.d_solution.Solution.area

(* The flat variable-depth search stands behind every step of each accepted
   prefix, so its gated run verifies the start plus every feasible solution
   on the accepted trajectory.  Replaying the applied moves from the start
   in the design's own environment recounts them. *)
let test_verify_each_flat bench () =
  let d = with_check (fun () -> synthesize bench) in
  let env = d.Driver.d_env in
  let feasible s = if s.Solution.cost < infinity then 1 else 0 in
  let final, expected =
    List.fold_left
      (fun (sol, n) move ->
        match Moves.apply env sol move with
        | Some next -> (next, n + feasible next)
        | None -> Alcotest.failf "replayed move %s was rejected" (Moves.describe move))
      (let start = Solution.initial env in
       (start, feasible start))
      d.Driver.d_search.Search.moves_applied
  in
  check_int "gated run verified the start and every accepted step" expected
    d.Driver.d_search.Search.verified_accepts;
  Alcotest.(check (float 0.)) "the replay ends at the same design"
    d.Driver.d_solution.Solution.cost final.Solution.cost

(* --- mutation tests: each corruption trips its intended rule ------------- *)

exception Found

(* Fuse two registers whose lifetimes overlap: the parallel binding has one
   value per register, so some equal-width pair interferes in any benchmark
   with two simultaneously-live values. *)
let test_mutation_reg_lifetime () =
  let env, sol = build (Suite.find "gcd") in
  let prog = env.Solution.program in
  let stg = sol.Solution.stg and b = sol.Solution.binding in
  let regs = Binding.reg_ids b in
  try
    List.iter
      (fun r1 ->
        List.iter
          (fun r2 ->
            if r1 < r2 && Binding.reg_width b r1 = Binding.reg_width b r2 then
              match Binding.share_reg (Binding.copy b) r1 r2 with
              | Ok bad ->
                if has_rule "binding/reg-lifetime" (Binding_check.check prog stg bad)
                then raise Found
              | Error _ -> ())
          regs)
      regs;
    Alcotest.fail "no register fusion tripped binding/reg-lifetime"
  with Found -> ()

(* Fuse two functional units whose operations fire in the same state under
   compatible guards. *)
let test_mutation_fu_conflict () =
  let tripped =
    List.exists
      (fun bench ->
        let env, sol = build bench in
        let prog = env.Solution.program in
        let stg = sol.Solution.stg and b = sol.Solution.binding in
        let fus = Binding.fu_ids b in
        List.exists
          (fun f1 ->
            List.exists
              (fun f2 ->
                f1 < f2
                && match Binding.share_fu (Binding.copy b) f1 f2 with
                   | Ok bad ->
                     has_rule "binding/fu-state-conflict"
                       (Binding_check.check prog stg bad)
                   | Error _ -> false)
              fus)
          fus)
      [ Suite.find "cordic"; Suite.find "gcd"; Suite.find "paulin" ]
  in
  check_bool "some unit fusion tripped binding/fu-state-conflict" true tripped

let mutable_network dp =
  let nets = Datapath.networks dp in
  let idx = ref (-1) in
  Array.iteri
    (fun i (net : Datapath.network) ->
      if !idx < 0 && Array.length net.Datapath.net_keys >= 2 then idx := i)
    nets;
  if !idx < 0 then Alcotest.fail "no multi-leaf network to corrupt";
  (nets, !idx)

(* Swap a mux tree for one with the wrong leaf count. *)
let test_mutation_mux_shape () =
  let _, sol = build (Suite.find "cordic") in
  let dp = Datapath.copy sol.Solution.dp in
  let nets, i = mutable_network dp in
  let net = nets.(i) in
  let n = Array.length net.Datapath.net_keys in
  nets.(i) <- { net with Datapath.net = Muxnet.create ~n_leaves:(n + 1) };
  check_bool "corrupt tree trips rtl/mux-shape" true
    (has_rule "rtl/mux-shape" (Rtl_check.check sol.Solution.stg dp))

(* Point a leaf at a signal that is not in the port's fan-in set. *)
let test_mutation_fanin_cover () =
  let _, sol = build (Suite.find "cordic") in
  let dp = Datapath.copy sol.Solution.dp in
  let nets, i = mutable_network dp in
  let net = nets.(i) in
  let keys = Array.copy net.Datapath.net_keys in
  keys.(0) <- Datapath.K_input "bogus";
  nets.(i) <- { net with Datapath.net_keys = keys };
  let diags = Rtl_check.check sol.Solution.stg dp in
  check_bool "corrupt leaf trips rtl/fanin-cover" true
    (has_rule "rtl/fanin-cover" diags)

(* Re-aim a network at a port another network already drives. *)
let test_mutation_net_driver () =
  let _, sol = build (Suite.find "cordic") in
  let dp = Datapath.copy sol.Solution.dp in
  let nets = Datapath.networks dp in
  if Array.length nets < 2 then Alcotest.fail "need two networks";
  nets.(1) <- { nets.(1) with Datapath.net_port = nets.(0).Datapath.net_port };
  check_bool "duplicate driver trips rtl/net-driver" true
    (has_rule "rtl/net-driver" (Rtl_check.check sol.Solution.stg dp))

(* --- language lint rules -------------------------------------------------- *)

let lint_rules source = rules (Lint.check (Parser.parse source))

let test_lint_use_before_assign () =
  let rs =
    lint_rules
      "process p(a : int8) -> (r : int8, s : int8) { s = r + a; r = a; }"
  in
  check_bool "use-before-assign" true (List.mem "lang/use-before-assign" rs)

let test_lint_result_never_assigned () =
  let rs = lint_rules "process p(a : int8) -> (r : int8) { var x : int8 = a; }" in
  check_bool "result-never-assigned" true
    (List.mem "lang/result-never-assigned" rs)

let test_lint_constant_control () =
  let rs =
    lint_rules
      "process p(a : int8) -> (r : int8) {\n\
      \  if (1 == 2) { r = a; } else { r = a + 1; }\n\
      \  while (2 < 1) { r = r + 1; }\n\
       }"
  in
  check_bool "unreachable-branch" true (List.mem "lang/unreachable-branch" rs);
  check_bool "loop-never-runs" true (List.mem "lang/loop-never-runs" rs)

let test_lint_infinite_loop () =
  let rs =
    lint_rules
      "process p(a : int8) -> (r : int8) {\n\
      \  while (1 == 1) { r = r + 1; }\n\
      \  r = a;\n\
       }"
  in
  check_bool "infinite-loop" true (List.mem "lang/infinite-loop" rs);
  check_bool "dead-code" true (List.mem "lang/dead-code" rs)

let test_lint_loop_invariant_cond () =
  let rs =
    lint_rules
      "process p(a : int8) -> (r : int8) {\n\
      \  var i : int8 = 0;\n\
      \  while (i < a) { r = r + 1; }\n\
       }"
  in
  check_bool "loop-invariant-cond" true (List.mem "lang/loop-invariant-cond" rs)

let test_lint_clean_benchmarks () =
  List.iter
    (fun b ->
      Alcotest.(check (list string))
        (b.Suite.bench_name ^ " lint-clean") []
        (rules (Lint.check (Parser.parse b.Suite.source))))
    Suite.all

(* --- diagnostic plumbing -------------------------------------------------- *)

let test_render_json () =
  let d =
    Diagnostic.error ~rule:"x/y" ~path:"p \"q\"" "line1\nline2 \\ end"
  in
  let json = Diagnostic.render_json [ d ] in
  check_bool "escapes quotes" true
    (let sub = {|"p \"q\""|} in
     let rec find i =
       i + String.length sub <= String.length json
       && (String.sub json i (String.length sub) = sub || find (i + 1))
     in
     find 0);
  Alcotest.(check string) "empty list is []" "[]" (Diagnostic.render_json [])

(* The switch as this process found it, read before any test sets it: the
   environment cannot be unset again, so the unset case is checked only
   when the suite itself was started without IMPACT_CHECK. *)
let unset_reading =
  match Sys.getenv_opt "IMPACT_CHECK" with None -> Some (Oracle.enabled ()) | Some _ -> None

let test_oracle_enabled () =
  Option.iter (check_bool "unset disables" false) unset_reading;
  List.iter
    (fun (v, on) ->
      Unix.putenv "IMPACT_CHECK" v;
      check_bool (Printf.sprintf "%S" v) on (Oracle.enabled ()))
    [ ("", false); ("0", false); ("1", true); ("yes", true) ];
  Unix.putenv "IMPACT_CHECK" "0"

let per_bench f =
  List.map
    (fun b -> Alcotest.test_case b.Suite.bench_name `Quick (f b))
    Suite.all

let () =
  Alcotest.run "impact_verify"
    [
      ("clean", per_bench test_clean);
      ("verify-each", per_bench test_verify_each);
      ("verify-each flat", per_bench test_verify_each_flat);
      ( "mutation",
        [
          Alcotest.test_case "reg lifetime" `Quick test_mutation_reg_lifetime;
          Alcotest.test_case "fu conflict" `Quick test_mutation_fu_conflict;
          Alcotest.test_case "mux shape" `Quick test_mutation_mux_shape;
          Alcotest.test_case "fanin cover" `Quick test_mutation_fanin_cover;
          Alcotest.test_case "net driver" `Quick test_mutation_net_driver;
        ] );
      ( "lint",
        [
          Alcotest.test_case "use before assign" `Quick
            test_lint_use_before_assign;
          Alcotest.test_case "result never assigned" `Quick
            test_lint_result_never_assigned;
          Alcotest.test_case "constant control" `Quick
            test_lint_constant_control;
          Alcotest.test_case "infinite loop" `Quick test_lint_infinite_loop;
          Alcotest.test_case "loop-invariant cond" `Quick
            test_lint_loop_invariant_cond;
          Alcotest.test_case "benchmarks lint-clean" `Quick
            test_lint_clean_benchmarks;
        ] );
      ( "diagnostic",
        [
          Alcotest.test_case "json rendering" `Quick test_render_json;
          Alcotest.test_case "env gate" `Quick test_oracle_enabled;
        ] );
    ]
