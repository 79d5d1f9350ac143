(* Robustness: fuzzed inputs fail with the right exceptions (never crashes
   or wrong-kind errors), runtime guards fire, and a large random design
   goes through the whole synthesis flow. *)

module Ir = Impact_cdfg.Ir
module Graph = Impact_cdfg.Graph
module Builder = Impact_cdfg.Builder
module Guard = Impact_cdfg.Guard
module Lexer = Impact_lang.Lexer
module Parser = Impact_lang.Parser
module Typecheck = Impact_lang.Typecheck
module Elaborate = Impact_lang.Elaborate
module Sim = Impact_sim.Sim
module Stg = Impact_sched.Stg
module Scheduler = Impact_sched.Scheduler
module Binding = Impact_rtl.Binding
module Rtl_sim = Impact_rtl.Rtl_sim
module Module_library = Impact_modlib.Module_library
module Rng = Impact_util.Rng
module Suite = Impact_benchmarks.Suite
module Solution = Impact_core.Solution
module Driver = Impact_core.Driver
module Request = Impact_core.Request

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Frontend fuzzing ------------------------------------------------------ *)

let frontend_accepts_or_rejects_cleanly src =
  match Elaborate.from_source src with
  | _ -> true
  | exception Lexer.Error _ -> true
  | exception Parser.Error _ -> true
  | exception Typecheck.Error _ -> true
  | exception _ -> false

let prop_fuzz_bytes =
  QCheck.Test.make ~name:"random bytes never crash the frontend" ~count:300
    QCheck.(string_of_size (QCheck.Gen.int_range 0 200))
    frontend_accepts_or_rejects_cleanly

let prop_fuzz_token_soup =
  (* Strings made of valid tokens in random order: exercises the parser's
     error paths deeper than raw bytes. *)
  let tokens =
    [| "process"; "var"; "if"; "else"; "while"; "for"; "("; ")"; "{"; "}";
       ":"; ";"; ","; "->"; "="; "+"; "-"; "*"; "<"; "<="; ">"; ">="; "==";
       "!="; "&&"; "||"; "!"; "<<"; ">>"; "int16"; "bool"; "x"; "y"; "p";
       "42"; "0"; "true"; "false" |]
  in
  QCheck.Test.make ~name:"token soup never crashes the frontend" ~count:300
    QCheck.(pair small_nat (int_range 0 60))
    (fun (seed, len) ->
      let rng = Rng.create ~seed in
      let soup =
        String.concat " " (List.init len (fun _ -> Rng.choose rng tokens))
      in
      frontend_accepts_or_rejects_cleanly soup)

let prop_fuzz_mutated_gcd =
  (* Mutate a valid program by deleting or duplicating a random slice:
     likely-invalid programs that look almost right. *)
  QCheck.Test.make ~name:"mutated programs never crash the frontend" ~count:300
    QCheck.(triple small_nat small_nat bool)
    (fun (a, b, dup) ->
      let src = Suite.gcd.Suite.source in
      let n = String.length src in
      let lo = min (a mod n) (b mod n) and hi = max (a mod n) (b mod n) in
      let mutated =
        if dup then String.sub src 0 hi ^ String.sub src lo (n - lo)
        else String.sub src 0 lo ^ String.sub src hi (n - hi)
      in
      frontend_accepts_or_rejects_cleanly mutated)

(* --- Runtime guards --------------------------------------------------------- *)

let test_sim_stuck_guard () =
  let prog =
    Elaborate.from_source
      "process p(a : int16) -> (r : int16) { var i : int16 = 0; while (a == a) { i = i + 1; } r = i; }"
  in
  match Sim.simulate ~max_loop_iters:500 prog ~workload:[ [ ("a", 1) ] ] with
  | exception Sim.Stuck _ -> ()
  | _ -> Alcotest.fail "expected the loop budget to fire"

let test_rtl_deadlock_no_transition () =
  (* A hand-broken STG whose state has no outgoing transition. *)
  let prog = Suite.program Suite.gcd in
  let binding = Binding.parallel prog.Graph.graph Module_library.default in
  let broken =
    {
      Stg.states = [| { Stg.firings = [] }; { Stg.firings = [] } |];
      succs = [| []; [] |];
      entry = 0;
      exit_id = 1;
      clock_ns = 15.;
    }
  in
  match
    Rtl_sim.simulate prog broken binding ~workload:[ [ ("a", 4); ("b", 2) ] ]
  with
  | exception Rtl_sim.Deadlock _ -> ()
  | _ -> Alcotest.fail "expected a deadlock"

let test_rtl_deadlock_ambiguous () =
  (* Two always-true transitions: nondeterminism must be reported. *)
  let prog = Suite.program Suite.gcd in
  let binding = Binding.parallel prog.Graph.graph Module_library.default in
  let broken =
    {
      Stg.states = [| { Stg.firings = [] }; { Stg.firings = [] } |];
      succs =
        [|
          [ { Stg.t_guard = Guard.always; t_dst = 1 };
            { Stg.t_guard = Guard.always; t_dst = 0 } ];
          [];
        |];
      entry = 0;
      exit_id = 1;
      clock_ns = 15.;
    }
  in
  match
    Rtl_sim.simulate prog broken binding ~workload:[ [ ("a", 4); ("b", 2) ] ]
  with
  | exception Rtl_sim.Deadlock msg ->
    check_bool "mentions multiple" true
      (String.length msg > 0
      && (let has sub =
            let n = String.length sub in
            let rec scan i = i + n <= String.length msg && (String.sub msg i n = sub || scan (i + 1)) in
            scan 0
          in
          has "matching"))
  | _ -> Alcotest.fail "expected a deadlock"

let test_rtl_cycle_budget () =
  (* A two-state ping-pong that never reaches the exit must trip the cycle
     budget rather than hang. *)
  let prog = Suite.program Suite.gcd in
  let binding = Binding.parallel prog.Graph.graph Module_library.default in
  let looping =
    {
      Stg.states = [| { Stg.firings = [] }; { Stg.firings = [] }; { Stg.firings = [] } |];
      succs =
        [|
          [ { Stg.t_guard = Guard.always; t_dst = 1 } ];
          [ { Stg.t_guard = Guard.always; t_dst = 0 } ];
          [];
        |];
      entry = 0;
      exit_id = 2;
      clock_ns = 15.;
    }
  in
  match
    Rtl_sim.simulate ~max_cycles_per_pass:1000 prog looping binding
      ~workload:[ [ ("a", 4); ("b", 2) ] ]
  with
  | exception Rtl_sim.Deadlock _ -> ()
  | _ -> Alcotest.fail "expected the cycle budget to fire"

let test_workload_missing_input () =
  let prog = Suite.program Suite.gcd in
  match Sim.simulate prog ~workload:[ [ ("a", 4) ] ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected missing-input rejection"

(* The simulator keeps bits only, so a program whose node would carry a
   value of another width than the graph says is refused before the run:
   here a 16-bit copy of an 8-bit input, refused even with no pass to
   fire it. *)
let test_sim_wrong_width () =
  let b = Builder.create ~name:"wide" () in
  let x = Builder.input b "x" ~width:8 in
  let g = Builder.graph b in
  let nid = Graph.add_node g ~kind:Ir.Op_copy ~inputs:[ x ] ~width:16 () in
  let prog = Builder.finish b ~top:(Ir.R_ops [ nid ]) in
  Alcotest.check_raises "refused before the run"
    (Invalid_argument "Sim: node copy#0 carries a 8-bit value where the graph says 16")
    (fun () -> ignore (Sim.simulate prog ~workload:[]))

(* --- Stress: a large random design through the whole flow ------------------- *)

let big_program () =
  (* ~40 statements with nesting: around 150-250 CDFG nodes. *)
  let rng = Rng.create ~seed:4242 in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "process big(a : int16, b : int16, c : int16) -> (r : int16) {\n";
  let vars = ref [ "a"; "b"; "c" ] in
  let fresh =
    let n = ref 0 in
    fun () ->
      incr n;
      Printf.sprintf "v%d" !n
  in
  let pick () = Rng.choose rng (Array.of_list !vars) in
  for block = 0 to 7 do
    let v = fresh () in
    Buffer.add_string buf
      (Printf.sprintf "  var %s : int16 = %s + %s;\n" v (pick ()) (pick ()));
    vars := v :: !vars;
    Buffer.add_string buf
      (Printf.sprintf "  for (var i%d : int16 = 0; i%d < %d; i%d = i%d + 1) {\n" block
         block
         (2 + Rng.int rng 5)
         block block);
    let w = fresh () in
    Buffer.add_string buf
      (Printf.sprintf "    var %s : int16 = %s * 3 + i%d;\n" w (pick ()) block);
    Buffer.add_string buf
      (Printf.sprintf "    if (%s > %s) { %s = %s - %s; } else { %s = %s + 1; }\n" w
         (pick ()) v v w v v);
    Buffer.add_string buf "  }\n"
    (* w is loop-local: it must not escape into later blocks *)
  done;
  Buffer.add_string buf (Printf.sprintf "  r = %s;\n}\n" (List.hd !vars));
  Buffer.contents buf

let test_stress_full_flow () =
  let src = big_program () in
  let prog = Elaborate.from_source src in
  check_bool
    (Printf.sprintf "a real design (%d nodes)" (Graph.node_count prog.Graph.graph))
    true
    (Graph.node_count prog.Graph.graph > 80);
  let rng = Rng.create ~seed:5 in
  let workload =
    List.init 15 (fun _ ->
        [
          ("a", Rng.int_in rng 0 100);
          ("b", Rng.int_in rng 0 100);
          ("c", Rng.int_in rng 0 100);
        ])
  in
  let t0 = Unix.gettimeofday () in
  let opts =
    { Driver.default_options with depth = 2; max_candidates = 10; max_iterations = 4 }
  in
  let d =
    Driver.synthesize ~options:opts prog ~workload ~objective:Solution.Minimize_power
      ~laxity:2.0 ()
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  check_bool "feasible" true (d.Driver.d_solution.Solution.cost < infinity);
  check_bool (Printf.sprintf "finished in %.1fs" elapsed) true (elapsed < 120.);
  (* and still correct *)
  let typed = Typecheck.check (Parser.parse src) in
  let sol = d.Driver.d_solution in
  let rtl = Rtl_sim.simulate prog sol.Solution.stg sol.Solution.binding ~workload in
  List.iteri
    (fun pass inputs ->
      let expected = (Impact_lang.Interp.run typed ~inputs).Impact_lang.Interp.results in
      List.iter
        (fun (name, v) ->
          check_int
            (Printf.sprintf "pass %d %s" pass name)
            (Impact_util.Bitvec.to_signed v)
            (Impact_util.Bitvec.to_signed (List.assoc name rtl.Rtl_sim.pass_outputs.(pass))))
        expected)
    workload

(* --- The request schema ------------------------------------------------------ *)

(* Raw values for each field, in its domain and out of it: the boundaries,
   the values the front ends accepted before the schema checked them (NaN,
   infinities, laxities below 1, a zero clock, fractional counts, an empty
   list) and values of the wrong kind.  Accepted pass counts stay small so a
   synthesis is quick. *)
let raw_pool =
  let open Request in
  let below x = Float (Float.pred x) in
  [
    ("target", [ Text "bench:gcd" ], [ Text ""; Int 3 ]);
    ("objective", [ Text "power"; Text "area" ], [ Text "foo"; Float 1. ]);
    ( "laxity",
      [ Int 1; Float 1.5; Int 3; Float 1e6 ],
      [ below 1.; Float 0.5; Int 0; Int (-1); Float nan; Float infinity; Text "2" ] );
    ( "laxities",
      [ Items [ Int 1; Float 2.5 ]; Items [ Float 1.5 ] ],
      [ Items []; Items [ Float nan ]; Items [ Int 1; Text "x" ]; Float 2. ] );
    ( "clock",
      [ Float min_clock_ns; Int 15; Float 40.; Float 1e6 ],
      [ below min_clock_ns; Float 0.; Float (-1.); Float nan; Float infinity; Float 1e-9;
        Text "fast" ] );
    ("passes", [ Int 1; Int 2; Float 2. ], [ Float 1.5; Int 0; Int (-1); Float nan; Float 1e30; Text "x" ]);
    ("seed", [ Int 1; Int 7; Int (-3); Float 2.; Int max_int ], [ Float 1.5; Float nan; Float 1e30 ]);
  ]

(* Each field is absent, in its domain or out of it, weighted so that about
   a third of the requests are valid. *)
let gen_request =
  QCheck.Gen.(
    List.fold_right
      (fun (name, valid, invalid) rest ->
        map2
          (fun raw rest -> Option.fold ~none:rest ~some:(fun raw -> (name, raw) :: rest) raw)
          (frequency
             [ (1, return None); (6, map Option.some (oneofl valid));
               (1, map Option.some (oneofl invalid)) ])
          rest)
      raw_pool (return []))

let print_request fields =
  String.concat ", "
    (List.map (fun (k, raw) -> Format.asprintf "%s=%a" k Request.pp_raw raw) fields)

let gcd = Suite.find "gcd"

(* An accepted request synthesises gcd without an exception; a rejected one
   names a field it carries (or the missing target), and that field alone,
   beside a valid target, is rejected too. *)
let request_holds fields =
  match Request.validate fields with
  | Ok r ->
    let workload = gcd.Suite.workload ~seed:r.Request.options.Driver.seed ~passes:r.Request.passes in
    let design =
      Driver.synthesize ~options:r.Request.options (Suite.program gcd) ~workload
        ~objective:r.Request.objective ~laxity:r.Request.laxity ()
    in
    design.Driver.d_laxity = r.Request.laxity
  | Error e -> (
    String.starts_with ~prefix:(e.Request.field ^ " ") (Request.message e)
    &&
    match List.assoc_opt e.Request.field fields with
    | None -> e.Request.field = "target"
    | Some raw -> (
      match Request.validate [ (e.Request.field, raw); ("target", Request.Text "bench:gcd") ] with
      | Error e' -> e'.Request.field = e.Request.field
      | Ok _ -> false))

let prop_request_schema =
  QCheck.Test.make ~name:"validated requests synthesise, rejected ones name their field"
    ~count:40
    (QCheck.make ~print:print_request gen_request)
    request_holds

(* The boundaries, one field at a time beside a valid target.  The rejected
   values are ones the front ends used to accept. *)
let test_request_boundaries () =
  let accepts field raw =
    Result.is_ok (Request.validate [ ("target", Request.Text "bench:gcd"); (field, raw) ])
  in
  let open Request in
  List.iter
    (fun (field, raw, expected) ->
      check_bool (Format.asprintf "%s=%a" field pp_raw raw) expected (accepts field raw))
    [
      ("laxity", Int 1, true);
      ("laxity", Float (Float.pred 1.), false);
      ("laxity", Float nan, false);
      ("laxity", Float infinity, false);
      ("laxities", Items [ Float 1. ], true);
      ("laxities", Items [], false);
      ("laxities", Items [ Float 1.; Float 0.5 ], false);
      ("clock", Float min_clock_ns, true);
      ("clock", Float (Float.pred min_clock_ns), false);
      ("clock", Int 0, false);
      ("passes", Int 1, true);
      ("passes", Float 1., true);
      ("passes", Int 0, false);
      ("passes", Float 1.5, false);
      ("seed", Int (-1), true);
      ("seed", Float 1.5, false);
      ("objective", Text "area", true);
      ("objective", Text "foo", false);
    ];
  check_bool "a request without a target" true (Result.is_error (Request.validate []));
  match Request.validate [ ("target", Text "bench:gcd") ] with
  | Error _ -> Alcotest.fail "defaults rejected"
  | Ok r ->
    check_bool "default options" true (r.options = Driver.default_options);
    check_int "default passes" 60 r.passes

let () =
  Alcotest.run "impact_robustness"
    [
      ( "fuzz",
        [
          QCheck_alcotest.to_alcotest prop_fuzz_bytes;
          QCheck_alcotest.to_alcotest prop_fuzz_token_soup;
          QCheck_alcotest.to_alcotest prop_fuzz_mutated_gcd;
        ] );
      ( "guards",
        [
          Alcotest.test_case "sim loop budget" `Quick test_sim_stuck_guard;
          Alcotest.test_case "rtl no transition" `Quick test_rtl_deadlock_no_transition;
          Alcotest.test_case "rtl ambiguous" `Quick test_rtl_deadlock_ambiguous;
          Alcotest.test_case "rtl cycle budget" `Quick test_rtl_cycle_budget;
          Alcotest.test_case "missing input" `Quick test_workload_missing_input;
          Alcotest.test_case "sim wrong width" `Quick test_sim_wrong_width;
        ] );
      ( "request",
        [
          QCheck_alcotest.to_alcotest prop_request_schema;
          Alcotest.test_case "domain boundaries" `Quick test_request_boundaries;
        ] );
      ("stress", [ Alcotest.test_case "full flow on a large design" `Slow test_stress_full_flow ]);
    ]
