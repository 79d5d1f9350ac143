(* The interval/known-bits range analysis:
   - domain algebra sanity (canonical form, join/meet, membership);
   - per-operator transfer soundness, checked exhaustively against the
     simulator's concrete [Sim.eval] on small widths;
   - guard refinement narrows clamped values to their exact envelope;
   - widening terminates on every benchmark, including data-dependent
     loops;
   - the QCheck soundness property: every simulated value lies inside its
     inferred fact (the same gate IMPACT_RANGE_CHECK runs in CI);
   - with [range_power] off nothing changes: store fingerprints are
     byte-identical and effective widths equal to the declared ones price
     to the bit-identical estimate. *)

module Bitvec = Impact_util.Bitvec
module Rng = Impact_util.Rng
module Graph = Impact_cdfg.Graph
module Ir = Impact_cdfg.Ir
module Ranges = Impact_cdfg.Ranges
module Sim = Impact_sim.Sim
module Rangecheck = Impact_sim.Rangecheck
module Suite = Impact_benchmarks.Suite
module Elaborate = Impact_lang.Elaborate
module Diagnostic = Impact_util.Diagnostic
module Driver = Impact_core.Driver
module Solution = Impact_core.Solution
module Estimate = Impact_power.Estimate

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let random_workload program ~seed ~passes =
  let rng = Rng.create ~seed in
  List.init passes (fun _ ->
      List.map
        (fun (name, width) ->
          let bound = min (1 lsl (width - 1)) 4096 in
          (name, Rng.int_in rng 0 (bound - 1)))
        program.Graph.prog_inputs)

(* --- domain algebra ------------------------------------------------------ *)

let fact_exn = function
  | Ranges.Fact f -> f
  | Ranges.Bot -> Alcotest.fail "expected a non-Bot fact"

let test_domain () =
  (* Singletons know every bit. *)
  let f5 = fact_exn (Ranges.singleton ~width:8 5) in
  check_int "singleton lo" 5 f5.Ranges.f_lo;
  check_int "singleton known bits" 0xff (f5.Ranges.f_zeros lor f5.Ranges.f_ones);
  (* A non-negative interval derives its leading zeros. *)
  let f = fact_exn (Ranges.interval ~width:16 0 40) in
  check_bool "leading zeros known" true (f.Ranges.f_zeros land 0xffc0 = 0xffc0);
  check_int "required bits" 7 (Ranges.required_bits f);
  check_int "active bits" 6 (Ranges.active_bits (Ranges.Fact f) ~width:16);
  (* Empty meets collapse to Bot. *)
  check_bool "disjoint meet is Bot" true
    (Ranges.meet (Ranges.interval ~width:8 0 10) (Ranges.interval ~width:8 20 30)
    = Ranges.Bot);
  (* Join is an upper bound of both sides. *)
  let j =
    fact_exn
      (Ranges.join
         (Ranges.interval ~width:8 ~-3 ~-1)
         (Ranges.interval ~width:8 4 9))
  in
  check_bool "join covers" true (j.Ranges.f_lo <= -3 && j.Ranges.f_hi >= 9);
  (* Membership respects width, interval and bits. *)
  check_bool "mem in" true
    (Ranges.mem (Ranges.interval ~width:8 0 10) (Bitvec.make ~width:8 7));
  check_bool "mem out" false
    (Ranges.mem (Ranges.interval ~width:8 0 10) (Bitvec.make ~width:8 11));
  check_bool "mem width mismatch" false
    (Ranges.mem (Ranges.interval ~width:8 0 10) (Bitvec.make ~width:9 7));
  (* The 1-bit condition encoding: true is signed -1. *)
  check_bool "bool true" true
    (Ranges.mem (Ranges.singleton ~width:1 ~-1) (Bitvec.of_bool true));
  check_bool "bool false" true
    (Ranges.mem (Ranges.singleton ~width:1 0) (Bitvec.of_bool false))

let test_domain_62bit () =
  (* The full-width corner: masks and signed conversion at width 62. *)
  let t = fact_exn (Ranges.top 62) in
  check_bool "62-bit top bounds" true
    (t.Ranges.f_lo = -(1 lsl 61) && t.Ranges.f_hi = (1 lsl 61) - 1);
  let v = Bitvec.make ~width:62 ~-1 in
  check_bool "62-bit mem" true (Ranges.mem (Ranges.top 62) v);
  check_bool "62-bit singleton" true (Ranges.mem (Ranges.of_bitvec v) v)

(* --- transfer soundness against the concrete simulator ------------------- *)

(* Concrete values a fact admits, by exhaustive scan of the width's
   patterns (widths here are <= 6). *)
let concretize av width =
  List.filter
    (fun v -> Ranges.mem av v)
    (List.init (1 lsl width) (fun bits -> Bitvec.make ~width bits))

let binary_kinds =
  [
    Ir.Op_add; Ir.Op_sub; Ir.Op_mul; Ir.Op_lt; Ir.Op_le; Ir.Op_gt; Ir.Op_ge;
    Ir.Op_eq; Ir.Op_ne; Ir.Op_shl; Ir.Op_shr;
  ]

let out_width kind w =
  match kind with
  | Ir.Op_lt | Ir.Op_le | Ir.Op_gt | Ir.Op_ge | Ir.Op_eq | Ir.Op_ne -> 1
  | _ -> w

(* Random small fact: the interval hull of a few concrete values, sometimes
   refined by a known-bits meet. *)
let random_fact rng width =
  let r () = Rng.int_in rng 0 ((1 lsl width) - 1) in
  let s v = Bitvec.to_signed (Bitvec.make ~width v) in
  let a = s (r ()) and b = s (r ()) in
  let base = Ranges.interval ~width (min a b) (max a b) in
  if Rng.int_in rng 0 3 = 0 then
    let c = s (r ()) in
    Ranges.join base (Ranges.singleton ~width c)
  else base

(* [Sim.eval] on vectors, for a binary operation of equal-width operands. *)
let compute kind a b =
  let in_width = Bitvec.width a in
  let width = Sim.result_width kind ~width:in_width [| in_width; Bitvec.width b |] in
  Bitvec.make ~width (Sim.eval kind ~width ~in_width (Bitvec.bits a) (Bitvec.bits b) 0)

let test_transfer_binary () =
  let rng = Rng.create ~seed:7 in
  for _ = 1 to 400 do
    let width = Rng.int_in rng 1 6 in
    let fa = random_fact rng width and fb = random_fact rng width in
    List.iter
      (fun kind ->
        let ow = out_width kind width in
        let out = Ranges.transfer kind ~width:ow [| fa; fb |] in
        List.iter
          (fun a ->
            List.iter
              (fun b ->
                let v = compute kind a b in
                if not (Ranges.mem out v) then
                  Alcotest.failf "%s w%d: %s op %s gives %s outside abstract result"
                    (Ir.op_name kind) width (Bitvec.to_string a)
                    (Bitvec.to_string b) (Bitvec.to_string v))
              (concretize fb width))
          (concretize fa width))
      binary_kinds
  done

let test_transfer_unary () =
  let rng = Rng.create ~seed:11 in
  for _ = 1 to 300 do
    let width = Rng.int_in rng 1 6 in
    let fa = random_fact rng width in
    (* copy family *)
    List.iter
      (fun kind ->
        let out = Ranges.transfer kind ~width [| fa |] in
        List.iter
          (fun a ->
            check_bool "identity kinds" true (Ranges.mem out a))
          (concretize fa width))
      [ Ir.Op_copy; Ir.Op_end_loop; Ir.Op_output "o" ];
    (* not, at 1 bit *)
    let f1 = random_fact rng 1 in
    let out = Ranges.transfer Ir.Op_not ~width:1 [| f1 |] in
    List.iter
      (fun a -> check_bool "not" true (Ranges.mem out (Bitvec.lognot a)))
      (concretize f1 1);
    (* resize both directions *)
    let tw = Rng.int_in rng 1 8 in
    let out = Ranges.transfer Ir.Op_resize ~width:tw [| fa |] in
    List.iter
      (fun a ->
        check_bool "resize" true (Ranges.mem out (Bitvec.resize ~width:tw a)))
      (concretize fa width)
  done

let test_transfer_select_merge () =
  let rng = Rng.create ~seed:13 in
  for _ = 1 to 200 do
    let width = Rng.int_in rng 1 6 in
    let ft = random_fact rng width and fe = random_fact rng width in
    let fc = random_fact rng 1 in
    let out = Ranges.transfer Ir.Op_select ~width [| fc; ft; fe |] in
    List.iter
      (fun c ->
        let taken = if Bitvec.to_bool c then ft else fe in
        List.iter
          (fun v -> check_bool "select" true (Ranges.mem out v))
          (concretize taken width))
      (concretize fc 1);
    let out = Ranges.transfer Ir.Op_loop_merge ~width [| ft; fe |] in
    List.iter
      (fun v -> check_bool "merge" true (Ranges.mem out v))
      (concretize ft width @ concretize fe width)
  done

(* --- guard refinement ---------------------------------------------------- *)

let analyze_source src = Ranges.analyze (Elaborate.from_source src)

let output_fact analysis program name =
  Ranges.node_fact analysis (List.assoc name program.Graph.prog_outputs)

let test_refinement_clamp () =
  let program =
    Elaborate.from_source
      "process clamp(x : int8) -> (y : int8) {\n\
      \  y = x;\n\
      \  if (x < 0) { y = 0; }\n\
      \  if (y > 20) { y = 20; }\n\
       }"
  in
  let analysis = Ranges.analyze program in
  let f = fact_exn (output_fact analysis program "y") in
  check_int "clamped lo" 0 f.Ranges.f_lo;
  check_int "clamped hi" 20 f.Ranges.f_hi

let test_refinement_diagnostics () =
  let rules src =
    List.map (fun d -> d.Diagnostic.rule) (Ranges.diagnostics (analyze_source src))
  in
  (* A guard made impossible by an earlier clamp: dead branch + constant
     comparison, plus the oversized sum that proves narrowing happened. *)
  let ds =
    rules
      "process sat(a : int8) -> (s : int16) {\n\
      \  var x : int8 = a;\n\
      \  if (x < 0) { x = 0; }\n\
      \  if (x > 20) { x = 20; }\n\
      \  s = int16(x) + int16(x);\n\
      \  if (s > 100) { s = 100; }\n\
       }"
  in
  check_bool "dead branch" true (List.mem "range/dead-branch" ds);
  check_bool "constant comparison" true (List.mem "range/comparison-constant" ds);
  check_bool "oversized" true (List.mem "range/width-oversized" ds);
  (* The syntactically-constant case stays with the lang lint. *)
  let ds =
    rules "process c(a : int8) -> (y : int8) {\n  y = a;\n  if (1 == 2) { y = 0; }\n}"
  in
  check_bool "syntactic comparison suppressed" false
    (List.mem "range/comparison-constant" ds);
  check_bool "syntactic dead branch suppressed" false
    (List.mem "range/dead-branch" ds);
  (* An overflow that guards cannot rule out. *)
  let ds =
    rules
      "process m(a : int8, b : int8) -> (o : int8) {\n\
      \  var x : int8 = a;\n\
      \  var t : int8 = b;\n\
      \  if (x < 0) { x = 0; }\n\
      \  if (x > 20) { x = 20; }\n\
      \  if (t < 0) { t = 0; }\n\
      \  if (t > 20) { t = 20; }\n\
      \  o = x * t;\n\
       }"
  in
  check_bool "overflow-possible" true (List.mem "range/overflow-possible" ds)

(* --- widening termination ------------------------------------------------ *)

let test_widening_terminates () =
  (* Every benchmark's analysis completes (the engine raises after a round
     cap if it fails to converge)... *)
  List.iter
    (fun b -> ignore (Ranges.analyze (Suite.program b)))
    Suite.all_extended;
  (* ...including a data-dependent loop where the trip count is unbounded
     by any constant in the program. *)
  let program =
    Elaborate.from_source
      "process isq(n : int16) -> (r : int16) {\n\
      \  var x : int16 = 0;\n\
      \  while ((x + 1) * (x + 1) <= n) {\n\
      \    x = x + 1;\n\
      \  }\n\
      \  r = x;\n\
       }"
  in
  let analysis = Ranges.analyze program in
  (* Termination is the point here; precision is not.  Once the counter
     widens to the full int16 range, [x + 1] may wrap, so the sound result
     legitimately includes negatives — just require a live, well-formed
     fact. *)
  let f = fact_exn (output_fact analysis program "r") in
  check_int "counter fact width" 16 f.Ranges.f_width;
  check_bool "counter fact non-empty" true (f.Ranges.f_lo <= f.Ranges.f_hi)

let test_loop_counter_exact () =
  let program =
    Elaborate.from_source
      "process cnt(a : int16) -> (z : int16) {\n\
      \  var z0 : int16 = 0;\n\
      \  for (var i : int16 = 0; i < 10; i = i + 1) {\n\
      \    z0 = a;\n\
      \  }\n\
      \  z = z0;\n\
       }"
  in
  let analysis = Ranges.analyze program in
  (* Find the loop-merge for i and check the threshold widening landed on
     the exact [0,10] envelope. *)
  let found = ref false in
  Graph.iter_nodes program.Graph.graph ~f:(fun n ->
      if n.Ir.kind = Ir.Op_loop_merge && n.Ir.n_name = "Mrg:i" then begin
        found := true;
        let f = fact_exn (Ranges.node_fact analysis n.Ir.n_id) in
        check_int "i lo" 0 f.Ranges.f_lo;
        check_int "i hi" 10 f.Ranges.f_hi
      end);
  check_bool "found the counter merge" true !found

(* --- the soundness gate -------------------------------------------------- *)

let soundness_prop =
  QCheck.Test.make ~count:60 ~name:"simulated value is inside inferred fact"
    QCheck.(pair (int_bound (List.length Suite.all_extended - 1)) small_nat)
    (fun (bi, seed) ->
      let bench = List.nth Suite.all_extended bi in
      let program = Suite.program bench in
      let analysis = Ranges.analyze program in
      let check_workload workload =
        match Sim.simulate program ~workload with
        | run -> Rangecheck.check analysis run; true
        | exception Sim.Stuck _ -> true (* non-terminating input, not a range bug *)
      in
      check_workload (bench.Suite.workload ~seed:(seed + 1) ~passes:6)
      && check_workload (random_workload program ~seed:(seed + 1) ~passes:6))

let test_rangecheck_detects () =
  (* The gate actually fails on a wrong fact: check a run against the
     analysis of a different program. *)
  let gcd = Suite.program Suite.gcd in
  let analysis = Ranges.analyze gcd in
  let bogus = Ranges.analyze (Suite.program Suite.loops) in
  let run = Sim.simulate gcd ~workload:(Suite.gcd.Suite.workload ~seed:1 ~passes:4) in
  Rangecheck.check analysis run;
  match Rangecheck.check bogus run with
  | () -> Alcotest.fail "mismatched analysis must not verify"
  | exception Rangecheck.Violation _ -> ()
  | exception _ -> () (* any loud failure is acceptable *)

let test_driver_gate () =
  (* IMPACT_RANGE_CHECK=1 through the driver's environment funnel. *)
  Unix.putenv "IMPACT_RANGE_CHECK" "1";
  Fun.protect
    ~finally:(fun () -> Unix.putenv "IMPACT_RANGE_CHECK" "")
    (fun () ->
      check_bool "gate enabled" true (Ranges.check_enabled ());
      List.iter
        (fun bench ->
          let program = Suite.program bench in
          let workload = bench.Suite.workload ~seed:1 ~passes:6 in
          let env, _ =
            Driver.build_env
              ~options:{ Driver.default_options with clock_ns = bench.Suite.clock_ns }
              program ~workload ~objective:Solution.Minimize_power ~laxity:2.0
          in
          ignore (Solution.initial env))
        Suite.all);
  check_bool "gate disabled again" false (Ranges.check_enabled ())

(* --- bit-identity with range_power off ----------------------------------- *)

let test_fingerprint_identity () =
  let fp = Driver.options_fingerprint Driver.default_options in
  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  check_bool "default fingerprint has no range marker" false (contains fp "range_power");
  check_bool "off is byte-identical to default" true
    (fp = Driver.options_fingerprint { Driver.default_options with range_power = false });
  check_bool "on is keyed separately" true
    (contains
       (Driver.options_fingerprint { Driver.default_options with range_power = true })
       "range_power=true")

let test_declared_eff_identity () =
  (* Effective widths equal to the declared widths must price to the
     bit-identical estimate: the clamp is the identity there, so the
     range_power-off path cannot have drifted. *)
  let bench = Suite.gcd in
  let program = Suite.program bench in
  let workload = bench.Suite.workload ~seed:1 ~passes:8 in
  let env, _ =
    Driver.build_env
      ~options:{ Driver.default_options with clock_ns = bench.Suite.clock_ns }
      program ~workload ~objective:Solution.Minimize_power ~laxity:2.0
  in
  let sol = Solution.initial env in
  let run = Estimate.run env.Solution.est_ctx in
  let declared =
    Array.init
      (Graph.node_count program.Graph.graph)
      (fun nid -> (Graph.node program.Graph.graph nid).Ir.n_width)
  in
  let plain =
    Estimate.estimate (Estimate.create_ctx run) ~stg:sol.Solution.stg
      ~dp:sol.Solution.dp ()
  in
  let clamped =
    Estimate.estimate
      (Estimate.create_ctx ~eff:declared run)
      ~stg:sol.Solution.stg ~dp:sol.Solution.dp ()
  in
  check_bool "bit-identical estimate" true
    (plain.Estimate.est_power = clamped.Estimate.est_power
    && plain.Estimate.est_breakdown = clamped.Estimate.est_breakdown)

let test_range_power_prices_lower () =
  (* With real effective widths the initial solution can only get cheaper
     (clamps only shrink width-scaled terms), and the trajectory knob
     actually reaches the estimator. *)
  let bench = Suite.loops in
  let program = Suite.program bench in
  let workload = bench.Suite.workload ~seed:1 ~passes:8 in
  let build range_power =
    let env, _ =
      Driver.build_env
        ~options:
          { Driver.default_options with clock_ns = bench.Suite.clock_ns; range_power }
        program ~workload ~objective:Solution.Minimize_power ~laxity:2.0
    in
    (Solution.est (Solution.initial env)).Estimate.est_power
  in
  let off = build false and on = build true in
  check_bool "range pricing is a discount" true (on <= off);
  check_bool "and a strict one on loops" true (on < off)

let () =
  Alcotest.run "impact_ranges"
    [
      ( "domain",
        [
          Alcotest.test_case "algebra" `Quick test_domain;
          Alcotest.test_case "62-bit corners" `Quick test_domain_62bit;
        ] );
      ( "transfer",
        [
          Alcotest.test_case "binary ops vs simulator" `Slow test_transfer_binary;
          Alcotest.test_case "unary ops vs simulator" `Quick test_transfer_unary;
          Alcotest.test_case "select and merge" `Quick test_transfer_select_merge;
        ] );
      ( "refinement",
        [
          Alcotest.test_case "guarded clamp narrows" `Quick test_refinement_clamp;
          Alcotest.test_case "rules fire and suppress" `Quick test_refinement_diagnostics;
        ] );
      ( "widening",
        [
          Alcotest.test_case "terminates everywhere" `Quick test_widening_terminates;
          Alcotest.test_case "loop counter exact" `Quick test_loop_counter_exact;
        ] );
      ( "soundness",
        [
          QCheck_alcotest.to_alcotest soundness_prop;
          Alcotest.test_case "gate detects violations" `Quick test_rangecheck_detects;
          Alcotest.test_case "driver IMPACT_RANGE_CHECK" `Slow test_driver_gate;
        ] );
      ( "bit-identity",
        [
          Alcotest.test_case "fingerprints" `Quick test_fingerprint_identity;
          Alcotest.test_case "declared eff widths" `Quick test_declared_eff_identity;
          Alcotest.test_case "range_power discounts" `Quick test_range_power_prices_lower;
        ] );
    ]
