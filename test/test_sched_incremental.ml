(* Rescheduling along move walks: the signature-cached evaluation must
   reproduce the fresh evaluation bit for bit (STG signature, ENC, cost
   fingerprints); the plan-based schedule must equal the plan-free
   reference, and the schedule oracle must pass on every schedule; composed
   STGs must pass the structural splice checks; the binary binding key must
   partition solutions exactly as the text it replaced, and the schedule key
   exactly as the signature of the schedule with its firing times erased. *)

module Graph = Impact_cdfg.Graph
module Guard = Impact_cdfg.Guard
module Sim = Impact_sim.Sim
module Scheduler = Impact_sched.Scheduler
module Stg = Impact_sched.Stg
module Check = Impact_sched.Check
module Enc = Impact_sched.Enc
module Binding = Impact_rtl.Binding
module Datapath = Impact_rtl.Datapath
module Estimate = Impact_power.Estimate
module Module_library = Impact_modlib.Module_library
module Diagnostic = Impact_util.Diagnostic
module Rng = Impact_util.Rng
module Suite = Impact_benchmarks.Suite
module Solution = Impact_core.Solution
module Moves = Impact_core.Moves

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let with_check f =
  let saved = Sys.getenv_opt "IMPACT_CHECK" in
  Unix.putenv "IMPACT_CHECK" "1";
  Fun.protect
    ~finally:(fun () -> Unix.putenv "IMPACT_CHECK" (Option.value saved ~default:""))
    f

let make_env bench laxity =
  let prog = Suite.program bench in
  let workload = bench.Suite.workload ~seed:41 ~passes:8 in
  let run = Sim.simulate prog ~workload in
  let min_stg =
    Scheduler.min_enc_schedule Scheduler.Wavesched ~clock_ns:bench.Suite.clock_ns
      prog Module_library.default
  in
  let enc_min = Enc.analytic min_stg run.Sim.profile in
  {
    Solution.program = prog;
    library = Module_library.default;
    sched_config =
      Scheduler.config_of_style Scheduler.Wavesched ~clock_ns:bench.Suite.clock_ns;
    est_ctx = Estimate.create_ctx run;
    enc_budget = laxity *. enc_min;
    objective = Solution.Minimize_power;
    area_ref =
      (let b = Binding.parallel prog.Graph.graph Module_library.default in
       Binding.fu_area b +. Binding.reg_area b);
  }

(* Everything a move evaluation can disagree on: objective cost, area, ENC,
   scaled supply and the complete schedule structure. *)
let fingerprint sol =
  Printf.sprintf "%h|%h|%h|%h|%s" sol.Solution.cost sol.Solution.area
    sol.Solution.enc sol.Solution.vdd
    (Stg.signature sol.Solution.stg)

(* --- Cached == fresh along random accepted-move walks ---------------------- *)

(* One walk: at every step the first applicable candidate is applied twice —
   once without any cache (fresh) and once against a persistent signature
   cache — and the two solutions must be fingerprint-identical.  The first
   two steps run under IMPACT_CHECK=1, so the scheduler's comparison
   with the plan-free reference and its splice validation run on real
   reschedules too. *)
let walk_identical bench ~seed ~steps =
  let env = make_env bench 2.5 in
  let cache = Solution.create_cache () in
  let rng = Rng.create ~seed in
  let sol = ref (Solution.initial env) in
  let compared = ref 0 in
  (try
     for step = 1 to steps do
       let cands = Moves.candidates env !sol ~rng ~max:10 in
       let next =
         List.find_map
           (fun mv ->
             match Moves.apply env !sol mv with
             | None -> None
             | Some full -> Some (mv, full))
           cands
       in
       match next with
       | None -> raise Exit
       | Some (mv, full) ->
         let run f = if step <= 2 then with_check f else f () in
         (match run (fun () -> Moves.apply ~cache env !sol mv) with
         | None ->
           Alcotest.failf "%s step %d: incremental apply rejected %s"
             bench.Suite.bench_name step (Moves.describe mv)
         | Some cached ->
           if fingerprint full <> fingerprint cached then
             Alcotest.failf "%s step %d: %s diverged through the cache"
               bench.Suite.bench_name step (Moves.describe mv);
           incr compared);
         sol := full
     done
   with Exit -> ());
  !compared

let test_walks_identical () =
  let total = ref 0 in
  List.iteri
    (fun i bench -> total := !total + walk_identical bench ~seed:(3 + i) ~steps:4)
    Suite.all;
  check_bool "walks compared solutions on the six-benchmark suite" true
    (!total >= List.length Suite.all)

let test_walk_property =
  QCheck.Test.make ~count:4 ~name:"incremental = full (any walk seed)"
    QCheck.(int_range 1 1000)
    (fun seed -> walk_identical Suite.gcd ~seed ~steps:3 >= 0)

(* --- Footprint mapping ------------------------------------------------------ *)

(* The pure constructor → footprint mapping. *)
let test_footprint_mapping () =
  let env = make_env Suite.gcd 2.5 in
  let sol = Solution.initial env in
  let fp mv = Moves.sched_footprint sol mv in
  let check_fp name mv fus regs =
    let f = fp mv in
    Alcotest.(check (list int)) (name ^ " fus") fus f.Estimate.fp_fus;
    Alcotest.(check (list int)) (name ^ " regs") regs f.Estimate.fp_regs
  in
  check_fp "share_fu" (Moves.Share_fu (3, 5)) [ 3; 5 ] [];
  check_fp "split_fu" (Moves.Split_fu (4, [ 1; 2 ])) [ 4 ] [];
  check_fp "substitute" (Moves.Substitute (6, "mod")) [ 6 ] [];
  check_fp "share_reg" (Moves.Share_reg (2, 7)) [] [ 2; 7 ];
  check_fp "split_reg" (Moves.Split_reg (9, [ 1 ])) [] [ 9 ];
  check_fp "restructure_fu" (Moves.Restructure (Datapath.P_fu_input (8, 0))) [ 8 ] [];
  check_fp "restructure_reg" (Moves.Restructure (Datapath.P_reg_write 5)) [] [ 5 ]

(* --- Splice validation ----------------------------------------------------- *)

let test_splice_checks () =
  (* A real schedule validates cleanly. *)
  let env = make_env Suite.gcd 2.5 in
  let sol = Solution.initial env in
  let stg = sol.Solution.stg in
  check_int "instantiated STG has no splice errors" 0
    (List.length (Diagnostic.errors (Check.splice_issues stg)));
  (* A transition, an entry or an exit outside the state array fails. *)
  let n = Array.length stg.Stg.states in
  let dangling = Array.copy stg.Stg.succs in
  let e = stg.Stg.entry in
  dangling.(e) <- { Stg.t_guard = Guard.always; t_dst = n + 5 } :: dangling.(e);
  List.iter
    (fun (what, bad) ->
      check_bool (what ^ " caught by splice check") true
        (Diagnostic.errors (Check.splice_issues bad) <> []))
    [
      ("dangling transition", { stg with Stg.succs = dangling });
      ("entry out of range", { stg with Stg.entry = n });
      ("exit out of range", { stg with Stg.exit_id = -1 });
    ]

(* --- Binary memo keys partition exactly like the text they replaced ------- *)

(* The text form the solution-cache key used to be, kept as the reference
   partition: the binary key must put two (binding, restructured) pairs in
   one class iff this text does.  [~modules:false] / [~inputs:false] give
   mutants that forget module names / register input names. *)
let reference_signature ?(modules = true) ?(inputs = true) ~binding:b ~restructured () =
  let ints xs = String.concat "," (List.map string_of_int (List.sort compare xs)) in
  let fu_sigs =
    List.sort compare
      (List.map
         (fun fu ->
           Printf.sprintf "F%s:%s"
             (if modules then (Binding.fu_module b fu).Module_library.spec_name else "")
             (ints (Binding.fu_ops b fu)))
         (Binding.fu_ids b))
  in
  let reg_sigs =
    List.sort compare
      (List.map
         (fun reg ->
           Printf.sprintf "R%s|%s"
             (ints (Binding.reg_values b reg))
             (if inputs then
                String.concat "," (List.sort compare (Binding.reg_input_names b reg))
              else ""))
         (Binding.reg_ids b))
  in
  let port_sig port =
    match port with
    | Datapath.P_fu_input (fu, port) -> (
      match Binding.fu_ops b fu with
      | exception _ -> Printf.sprintf "pf?%d.%d" fu port
      | [] -> Printf.sprintf "pf?%d.%d" fu port
      | ops -> Printf.sprintf "pf%d.%d" (List.fold_left min max_int ops) port)
    | Datapath.P_reg_write reg -> (
      match (Binding.reg_values b reg, Binding.reg_input_names b reg) with
      | exception _ -> Printf.sprintf "pr?%d" reg
      | [], [] -> Printf.sprintf "pr?%d" reg
      | [], names -> "pri" ^ List.hd (List.sort compare names)
      | vals, _ -> Printf.sprintf "pr%d" (List.fold_left min max_int vals))
  in
  let ports = List.sort_uniq compare (List.map port_sig restructured) in
  String.concat "#"
    [ String.concat ";" fu_sigs; String.concat ";" reg_sigs; String.concat ";" ports ]

(* Every solution a short random walk builds: at each step every candidate
   (and, for a share, its mirror image, which groups the same resources
   under other ids) is applied, then the walk moves to a random one. *)
let walk_solutions bench ~seed ~steps =
  let env = make_env bench 2.5 in
  let rng = Rng.create ~seed in
  let mirror = function
    | Moves.Share_fu (a, b) -> [ Moves.Share_fu (b, a) ]
    | Moves.Share_reg (a, b) -> [ Moves.Share_reg (b, a) ]
    | _ -> []
  in
  let rec go sol step acc =
    if step = steps then acc
    else
      let succs =
        Moves.candidates env sol ~rng ~max:40
        |> List.concat_map (fun mv -> mv :: mirror mv)
        |> List.filter_map (Moves.apply env sol)
      in
      match succs with
      | [] -> acc
      | _ -> go (List.nth succs (Rng.int rng (List.length succs))) (step + 1) (succs @ acc)
  in
  go (Solution.initial env) 0 []

(* [key] and [reference] induce the same partition of [xs]: each is a
   function of the other over the sample. *)
let same_partition key reference xs =
  let by_key = Hashtbl.create 64 and by_ref = Hashtbl.create 64 in
  let consistent tbl a b =
    match Hashtbl.find_opt tbl a with
    | Some b' -> b' = b
    | None ->
      Hashtbl.add tbl a b;
      true
  in
  List.for_all
    (fun x ->
      let k = key x and r = reference x in
      consistent by_key k r && consistent by_ref r k)
    xs

let binding_key (s : Solution.t) =
  Solution.signature ~binding:s.Solution.binding ~restructured:s.Solution.restructured

let binding_reference ?modules ?inputs () (s : Solution.t) =
  reference_signature ?modules ?inputs ~binding:s.Solution.binding
    ~restructured:s.Solution.restructured ()

(* The schedule with every firing's start and finish time zeroed: its
   shape, all that {!Stg.key} covers. *)
let erase_times (stg : Stg.t) =
  let erase fr = { fr with Stg.f_start_ns = 0.; f_finish_ns = 0. } in
  {
    stg with
    Stg.states =
      Array.map (fun st -> { Stg.firings = List.map erase st.Stg.firings }) stg.Stg.states;
  }

let stg_key (s : Solution.t) = Stg.key s.Solution.stg
let stg_reference (s : Solution.t) = Stg.signature (erase_times s.Solution.stg)

let test_key_partition =
  QCheck.Test.make ~count:2 ~name:"binary keys partition like the text (8 benchmarks)"
    QCheck.(int_range 1 1000)
    (fun seed ->
      List.for_all
        (fun bench ->
          let sols = walk_solutions bench ~seed ~steps:2 in
          same_partition binding_key (binding_reference ()) sols
          && same_partition stg_key stg_reference sols)
        Suite.all_extended)

(* --- The schedule plan ------------------------------------------------------- *)

(* Along random binding walks on all eight benchmarks: the plan-based
   schedule equals the plan-free reference. *)
let test_plan_walks =
  QCheck.Test.make ~count:2 ~name:"plan = plan-free reference (8 benchmarks)"
    QCheck.(int_range 1 1000)
    (fun seed ->
      List.for_all
        (fun bench ->
          let env = make_env bench 2.5 in
          let cfg = env.Solution.sched_config and prog = env.Solution.program in
          let sols = walk_solutions bench ~seed ~steps:2 in
          List.for_all
            (fun (s : Solution.t) ->
              let delay = Datapath.delay_model s.Solution.dp
              and res = Datapath.resource_model s.Solution.dp in
              Stg.signature (Scheduler.schedule cfg prog ~delay ~res)
              = Stg.signature (Scheduler.schedule_reference cfg prog ~delay ~res))
            sols)
        Suite.all_extended)

(* A conditional inside a parallel product: the conditional (kept whole by
   the speculative flattening, since it holds a loop) and the loop after it
   both read only the first block's results, so they share one dependence
   level and the conditional is scheduled standalone, with its own dispatch
   state.  No benchmark has this shape. *)
let par_cond_source =
  {|
process parcond(a : int16, b : int16, c : int16) -> (r : int16, s : int16) {
  var x : int16 = a;
  var t : int16 = b + c;
  var y : int16 = t;
  if (t > 3) {
    while (x > 10) { x = x - 3; }
  } else {
    x = x + b;
  }
  while (y > 20) { y = y - 7; }
  r = x;
  s = y;
}
|}

let test_par_cond_frag () =
  let prog = Impact_lang.Elaborate.from_source par_cond_source in
  let cfg = Scheduler.config_of_style Scheduler.Wavesched ~clock_ns:15. in
  let dp = Datapath.build (Binding.parallel prog.Graph.graph Module_library.default) in
  let delay = Datapath.delay_model dp and res = Datapath.resource_model dp in
  let reference = Stg.signature (Scheduler.schedule_reference cfg prog ~delay ~res) in
  let sched () = Stg.signature (Scheduler.schedule cfg prog ~delay ~res) in
  check_bool "plan = reference" true (sched () = reference);
  with_check (fun () ->
      check_bool "plan = reference under the check" true (sched () = reference))

(* The schedule oracle covers every schedule, the minimum-ENC schedules that
   define the laxity factor included: it compares each with the plan-free
   reference and raises on a divergence. *)
let test_min_enc_checked () =
  with_check (fun () ->
      List.iter
        (fun bench ->
          List.iter
            (fun style ->
              let prog = Suite.program bench in
              let stg =
                Scheduler.min_enc_schedule style ~clock_ns:bench.Suite.clock_ns prog
                  Module_library.default
              in
              check_bool (bench.Suite.bench_name ^ " min-ENC schedule has states") true
                (Stg.state_count stg > 1))
            [ Scheduler.Wavesched; Scheduler.Baseline ])
        Suite.all_extended)

(* Walk schedules never differ in a field their firings already determine
   (chain positions, transitions), so every field is also perturbed by
   hand: each shape variant must get its own key, as it gets its own
   signature, while a variant that moves only start or finish times keeps
   the key (and still gets its own signature). *)
let test_stg_key_fields () =
  let fr ?(node = 1) ?(phase = Stg.Normal) ?(guard = Guard.always) ?(start = 0.)
      ?(finish = 2.5) ?(pos = 0) () =
    {
      Stg.f_node = node;
      f_phase = phase;
      f_guard = guard;
      f_start_ns = start;
      f_finish_ns = finish;
      f_chain_pos = pos;
    }
  in
  let stg ?(clock = 10.) ?(entry = 0) ?(firings = [ [ fr (); fr ~node:2 () ]; [] ])
      ?(succs = [ [ { Stg.t_guard = Guard.always; t_dst = 1 } ]; [] ]) () =
    {
      Stg.states = Array.of_list (List.map (fun firings -> { Stg.firings }) firings);
      succs = Array.of_list succs;
      entry;
      exit_id = List.length firings - 1;
      clock_ns = clock;
    }
  in
  let variants =
    [
      stg ();
      stg ~clock:12. ();
      stg ~entry:1 ();
      stg ~firings:[ [ fr (); fr ~node:3 () ]; [] ] ();
      stg ~firings:[ [ fr ~phase:Stg.Merge_init (); fr ~node:2 () ]; [] ] ();
      stg ~firings:[ [ fr ~guard:(Guard.atom 4 true) (); fr ~node:2 () ]; [] ] ();
      stg ~firings:[ [ fr ~guard:(Guard.atom 4 false) (); fr ~node:2 () ]; [] ] ();
      stg ~firings:[ [ fr ~pos:1 (); fr ~node:2 () ]; [] ] ();
      stg ~firings:[ [ fr () ]; [ fr ~node:2 () ] ] ();
      stg ~firings:[ [ fr (); fr ~node:2 () ]; []; [] ] ~succs:[ []; []; [] ] ();
      stg ~succs:[ [ { Stg.t_guard = Guard.always; t_dst = 0 } ]; [] ] ();
      stg ~succs:[ [ { Stg.t_guard = Guard.atom 4 true; t_dst = 1 } ]; [] ] ();
      stg ~succs:[ []; [] ] ();
    ]
  in
  let retimed =
    [
      stg ~firings:[ [ fr ~start:(-0.) (); fr ~node:2 () ]; [] ] ();
      stg ~firings:[ [ fr ~start:1. (); fr ~node:2 () ]; [] ] ();
      stg ~firings:[ [ fr ~finish:3. (); fr ~node:2 () ]; [] ] ();
      stg ~firings:[ [ fr (); fr ~node:2 ~start:0.5 ~finish:4. () ]; [] ] ();
    ]
  in
  let distinct f xs = List.length (List.sort_uniq String.compare (List.map f xs)) in
  check_int "every variant has its own signature"
    (List.length variants + List.length retimed)
    (distinct Stg.signature (variants @ retimed));
  check_int "every shape variant has its own key" (List.length variants)
    (distinct Stg.key variants);
  check_int "times do not reach the key" 1 (distinct Stg.key (stg () :: retimed));
  check_bool "equal schedules have equal keys" true
    (Stg.key (stg ()) = Stg.key (stg ()))

(* The walks are strong enough to catch a key that forgets a field: one
   that drops module names (Substitute renames only a unit's module) or
   register input names (a value register shared with either of two input
   registers) merges classes the reference keeps apart. *)
let test_key_mutants () =
  let sols =
    List.concat_map (fun b -> walk_solutions b ~seed:5 ~steps:2) Suite.all_extended
  in
  check_bool "binding key agrees with the text" true
    (same_partition binding_key (binding_reference ()) sols);
  check_bool "schedule key agrees with the signature without times" true
    (same_partition stg_key stg_reference sols);
  check_bool "the walks re-time shapes: a key with times is caught" false
    (same_partition (fun s -> Stg.signature s.Solution.stg) stg_reference sols);
  check_bool "a key without module names is caught" false
    (same_partition (binding_reference ~modules:false ()) (binding_reference ()) sols);
  check_bool "a key without register input names is caught" false
    (same_partition (binding_reference ~inputs:false ()) (binding_reference ()) sols)

(* The signature sorts restructured-port anchors with a typed comparator:
   one set of ports gives one key, however it was inserted, duplicates
   included, and a different set gives another. *)
let test_signature_port_order () =
  let sol =
    List.find
      (fun (s : Solution.t) -> Datapath.network_count s.Solution.dp >= 3)
      (walk_solutions Suite.paulin ~seed:5 ~steps:2)
  in
  let ports =
    Array.to_list (Array.map (fun n -> n.Datapath.net_port) (Datapath.networks sol.Solution.dp))
  in
  let key restructured = Solution.signature ~binding:sol.Solution.binding ~restructured in
  let orders =
    [ ports; List.rev ports; List.tl ports @ [ List.hd ports ]; ports @ List.rev ports ]
  in
  check_int "one signature for every order" 1
    (List.length (List.sort_uniq String.compare (List.map key orders)));
  check_bool "a different port set differs" true (key (List.tl ports) <> key ports)

let () =
  Alcotest.run "impact_sched_incremental"
    [
      ( "identity",
        [
          Alcotest.test_case "incremental = full on six-benchmark walks" `Quick
            test_walks_identical;
          QCheck_alcotest.to_alcotest test_walk_property;
          Alcotest.test_case "min-ENC schedules pass the schedule check" `Quick
            test_min_enc_checked;
        ] );
      ("footprint", [ Alcotest.test_case "constructor mapping" `Quick test_footprint_mapping ]);
      ("splice", [ Alcotest.test_case "splice checks" `Quick test_splice_checks ]);
      ( "keys",
        [
          QCheck_alcotest.to_alcotest test_key_partition;
          QCheck_alcotest.to_alcotest test_plan_walks;
          Alcotest.test_case "conditional in a parallel product" `Quick test_par_cond_frag;
          Alcotest.test_case "walks catch key mutants" `Quick test_key_mutants;
          Alcotest.test_case "every schedule field reaches the key" `Quick
            test_stg_key_fields;
          Alcotest.test_case "restructured ports in any order, one signature" `Quick
            test_signature_port_order;
        ] );
    ]
