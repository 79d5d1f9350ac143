(* Incremental region-level rescheduling: along random accepted-move walks
   the fragment-spliced evaluation must reproduce the full-reschedule
   evaluation bit for bit (STG signature, ENC, cost fingerprints); a move's
   schedule perturbation must stay inside its declared resource footprint;
   spliced fragments must pass the structural splice checks; the
   fragment cache must honour its snapshot, fork/commit and persistence
   contracts; the binary binding key must partition solutions exactly as
   the text it replaced, and the schedule key exactly as the signature of
   the schedule with its firing times erased. *)

module Graph = Impact_cdfg.Graph
module Guard = Impact_cdfg.Guard
module Sim = Impact_sim.Sim
module Scheduler = Impact_sched.Scheduler
module Stg = Impact_sched.Stg
module Check = Impact_sched.Check
module Fragcache = Impact_sched.Fragcache
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
module Driver = Impact_core.Driver
module Store = Impact_store.Store

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let with_sched_check v f =
  let saved = Sys.getenv_opt "IMPACT_SCHED_CHECK" in
  Unix.putenv "IMPACT_SCHED_CHECK" v;
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "IMPACT_SCHED_CHECK" (Option.value saved ~default:""))
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

(* --- Incremental == full along random accepted-move walks ----------------- *)

(* One walk: at every step the first applicable candidate is applied twice —
   once without any cache (full reschedule) and once against a persistent
   fragment cache (spliced) — and the two solutions must be
   fingerprint-identical.  The first two steps run under IMPACT_SCHED_CHECK=1
   so the scheduler's own cold-recompute assertion and the splice validation
   are exercised on real fragments too. *)
let walk_identical bench ~seed ~steps =
  let env = make_env bench 2.5 in
  let frags = Fragcache.create ~context:bench.Suite.bench_name () in
  let cache = Solution.create_cache ~frags () in
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
         let run f = if step <= 2 then with_sched_check "1" f else f () in
         (match run (fun () -> Moves.apply ~cache env !sol mv) with
         | None ->
           Alcotest.failf "%s step %d: incremental apply rejected %s"
             bench.Suite.bench_name step (Moves.describe mv)
         | Some spliced ->
           if fingerprint full <> fingerprint spliced then
             Alcotest.failf "%s step %d: %s diverged under fragment splicing"
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

(* --- Footprint classification --------------------------------------------- *)

let kind = function
  | Moves.Share_fu _ -> "share_fu"
  | Moves.Split_fu _ -> "split_fu"
  | Moves.Substitute _ -> "substitute"
  | Moves.Share_reg _ -> "share_reg"
  | Moves.Split_reg _ -> "split_reg"
  | Moves.Restructure _ -> "restructure"

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

(* Semantic half: applying a Heavy move may only change the digests of
   regions containing operations served by the footprint's units/registers
   (that is what makes fragment reuse after a move sound and profitable). *)
let footprint_contains_changes env sol ~seen =
  let cfg = env.Solution.sched_config and prog = env.Solution.program in
  let report s =
    Scheduler.region_report cfg prog
      ~delay:(Datapath.delay_model s.Solution.dp)
      ~res:(Datapath.resource_model s.Solution.dp)
  in
  let r0 = report sol in
  let rng = Rng.create ~seed:17 in
  let heavy =
    Moves.candidates env sol ~rng ~max:1000
    |> List.filter (fun m -> not (Moves.reprices env sol m))
  in
  List.iter
    (fun mv ->
      match Moves.apply env sol mv with
      | None -> ()
      | Some succ ->
        let f = Moves.sched_footprint sol mv in
        let fp_ops =
          List.concat_map (Binding.fu_ops sol.Solution.binding) f.Estimate.fp_fus
          @ List.concat_map (Binding.reg_values sol.Solution.binding)
              f.Estimate.fp_regs
        in
        let r1 = report succ in
        check_int "region walk is structurally stable" (List.length r0)
          (List.length r1);
        List.iter2
          (fun (nodes0, d0) (nodes1, d1) ->
            Alcotest.(check (list int)) "region node lists stable" nodes0 nodes1;
            if d0 <> d1 && not (List.exists (fun n -> List.mem n fp_ops) nodes0)
            then
              Alcotest.failf "%s changed a region outside its footprint"
                (Moves.describe mv))
          r0 r1;
        Hashtbl.replace seen (kind mv) ())
    heavy

let test_footprint_classification () =
  let env = make_env Suite.dealer 2.5 in
  let seen = Hashtbl.create 8 in
  let sol = ref (Solution.initial env) in
  footprint_contains_changes env !sol ~seen;
  (* Walk a few accepted moves so sharing exists, which surfaces the split
     and restructure constructors too. *)
  let rng = Rng.create ~seed:23 in
  for _ = 1 to 5 do
    let cands = Moves.candidates env !sol ~rng ~max:10 in
    match List.find_map (fun mv -> Moves.apply env !sol mv) cands with
    | Some s -> sol := s
    | None -> ()
  done;
  footprint_contains_changes env !sol ~seen;
  List.iter
    (fun k -> check_bool (k ^ " constructor exercised") true (Hashtbl.mem seen k))
    [ "share_fu"; "substitute"; "share_reg" ];
  check_bool "several Heavy constructors exercised" true (Hashtbl.length seen >= 3)

(* --- Heavy-move rescheduling against a warmed cache ------------------------ *)

(* Apply every Heavy candidate of the start solution once with a fragment
   cache, then reschedule each successor's delay and resource models
   against the warmed cache: no fragment is scheduled again, and every
   reschedule reuses the same number of fragments, so each is spliced
   whole from the cache (on gcd and dealer the outermost region hits and
   nothing below it is visited). *)
let test_heavy_resched_splices () =
  List.iter
    (fun bench ->
      let name = bench.Suite.bench_name in
      let env = make_env bench 2.5 in
      let sol = Solution.initial env in
      let rng = Rng.create ~seed:7 in
      let heavy =
        Moves.candidates env sol ~rng ~max:1000
        |> List.filter (fun m -> not (Moves.reprices env sol m))
      in
      let frags = Fragcache.create ~context:name () in
      let cache = Solution.create_cache ~frags () in
      let models =
        List.filter_map (Moves.apply ~cache env sol) heavy
        |> List.map (fun s ->
               (Datapath.delay_model s.Solution.dp, Datapath.resource_model s.Solution.dp))
      in
      check_bool (name ^ " several Heavy successors") true (List.length models >= 2);
      let counts =
        List.map
          (fun (delay, res) ->
            let r0, s0 = Fragcache.counters frags in
            ignore
              (Scheduler.schedule ~frags env.Solution.sched_config env.Solution.program
                 ~delay ~res);
            let r1, s1 = Fragcache.counters frags in
            (r1 - r0, s1 - s0))
          models
      in
      let reused = fst (List.hd counts) in
      check_bool (name ^ " fragments reused") true (reused > 0);
      List.iter
        (fun (r, s) ->
          check_int (name ^ " nothing scheduled") 0 s;
          check_int (name ^ " every region reused") reused r)
        counts)
    [ Suite.gcd; Suite.dealer ]

(* --- Splice validation ----------------------------------------------------- *)

let mk_state = { Stg.firings = [] }

let test_splice_checks () =
  (* A well-formed chain fragment validates cleanly. *)
  let ok = Stg.frag_of_chain [ mk_state; mk_state; mk_state ] in
  check_int "valid fragment has no splice errors" 0
    (List.length (Diagnostic.errors (Check.splice_frag_issues ok)));
  (* A real spliced schedule validates cleanly too. *)
  let env = make_env Suite.gcd 2.5 in
  let sol = Solution.initial env in
  check_int "instantiated STG has no splice errors" 0
    (List.length (Diagnostic.errors (Check.splice_issues sol.Solution.stg)));
  (* Corrupt snapshots: dangling transition, entry out of range.  Both must
     fail the portable well-formedness gate (what the disk tier uses), and
     the materialised dangling fragment must fail the splice check. *)
  let dangling =
    {
      Stg.pf_states = [| mk_state |];
      pf_succs = [| [ { Stg.t_guard = Guard.always; t_dst = 5 } ] |];
      pf_entry = 0;
      pf_exits = [];
    }
  in
  check_bool "dangling transition rejected by wf" false
    (Stg.portable_frag_wf dangling);
  check_bool "dangling transition caught by splice check" true
    (Diagnostic.errors (Check.splice_frag_issues (Stg.frag_of_portable dangling))
    <> []);
  let bad_entry = { dangling with pf_succs = [| [] |]; pf_entry = 3 } in
  check_bool "entry out of range rejected by wf" false
    (Stg.portable_frag_wf bad_entry);
  let bad_exit = { bad_entry with pf_entry = 0; pf_exits = [ (9, Guard.always) ] } in
  check_bool "exit out of range rejected by wf" false (Stg.portable_frag_wf bad_exit)

(* --- Fragment cache contracts ---------------------------------------------- *)

let frag_shape f =
  (Stg.frag_state_count f, Stg.frag_entry f, List.map fst (Stg.frag_exits f))

let test_fragcache_roundtrip () =
  let fc = Fragcache.create ~context:"ctx" () in
  let f = Stg.frag_of_chain [ mk_state; mk_state ] in
  check_bool "miss before add" true (Fragcache.find fc "k" = None);
  Fragcache.add fc "k" ~cost_ns:10 f;
  (match Fragcache.find fc "k" with
  | None -> Alcotest.fail "added fragment not found"
  | Some g ->
    check_bool "roundtrip preserves shape" true (frag_shape g = frag_shape f);
    (* Mutating a served copy must not corrupt the cache entry. *)
    ignore (Stg.frag_add_state g mk_state);
    (match Fragcache.find fc "k" with
    | Some h -> check_bool "cache entry isolated from served copies" true
                  (frag_shape h = frag_shape f)
    | None -> Alcotest.fail "entry vanished"));
  let reused, scheduled = Fragcache.counters fc in
  check_int "reused counter" 2 reused;
  check_int "scheduled counter" 1 scheduled;
  check_int "entries" 1 (Fragcache.entries fc)

let test_fragcache_fork_commit () =
  let fc = Fragcache.create () in
  let probe = Fragcache.fork fc in
  let f = Stg.frag_of_chain [ mk_state ] in
  Fragcache.add probe "a" ~cost_ns:1 f;
  check_bool "probe sees its own entry" true (Fragcache.find probe "a" <> None);
  check_bool "parent isolated before commit" true (Fragcache.find fc "a" = None);
  Fragcache.commit probe;
  check_bool "commit publishes to the shared table" true
    (Fragcache.find fc "a" <> None)

let test_fragcache_backing () =
  let disk = Hashtbl.create 8 in
  let backing =
    {
      Fragcache.bk_find = Hashtbl.find_opt disk;
      bk_put = (fun k ~cost_ns:_ v -> Hashtbl.replace disk k v);
    }
  in
  let fc = Fragcache.create ~context:"c" ~backing () in
  Fragcache.add fc "k" ~cost_ns:5 (Stg.frag_of_chain [ mk_state; mk_state ]);
  check_int "add writes through to the backing" 1 (Hashtbl.length disk);
  (* A fresh cache over the same backing serves the persisted fragment. *)
  let fc2 = Fragcache.create ~context:"c" ~backing () in
  check_bool "warm cache hits the backing" true (Fragcache.find fc2 "k" <> None);
  (* A different context is a different key space. *)
  let fc3 = Fragcache.create ~context:"other" ~backing () in
  check_bool "context partitions the backing" true (Fragcache.find fc3 "k" = None);
  (* Corrupt payloads read as misses, never crashes. *)
  Hashtbl.iter (fun k _ -> Hashtbl.replace disk k "garbage") disk;
  let fc4 = Fragcache.create ~context:"c" ~backing () in
  check_bool "corrupt backing payload is a miss" true (Fragcache.find fc4 "k" = None)

(* Two probes that schedule the same region both file it in their overlays;
   only the entry that wins the shared-table insert at commit reaches the
   backing, and fragments read from the backing are never written back. *)
let test_fragcache_write_once () =
  let disk = Hashtbl.create 8 and puts = ref 0 in
  let backing =
    {
      Fragcache.bk_find = Hashtbl.find_opt disk;
      bk_put =
        (fun k ~cost_ns:_ v ->
          incr puts;
          Hashtbl.replace disk k v);
    }
  in
  let frag () = Stg.frag_of_chain [ mk_state; mk_state ] in
  let fc = Fragcache.create ~context:"c" ~backing () in
  let p1 = Fragcache.fork fc and p2 = Fragcache.fork fc in
  Fragcache.add p1 "k" ~cost_ns:3 (frag ());
  Fragcache.add p2 "k" ~cost_ns:4 (frag ());
  check_int "overlays write nothing" 0 !puts;
  Fragcache.commit p1;
  Fragcache.commit p2;
  check_int "one backing write for a key both probes filed" 1 !puts;
  Fragcache.add fc "k" ~cost_ns:5 (frag ());
  check_int "an unforked re-add of a filed key writes nothing" 1 !puts;
  let warm = Fragcache.create ~context:"c" ~backing () in
  let probe = Fragcache.fork warm in
  check_bool "probe hits the backing" true (Fragcache.find probe "k" <> None);
  Fragcache.commit probe;
  let warm2 = Fragcache.create ~context:"c" ~backing () in
  check_bool "unforked cache hits the backing" true (Fragcache.find warm2 "k" <> None);
  check_int "backing hits are never written back" 1 !puts

(* The backing sees [context ^ "\000" ^ region key] and nothing else: a
   real schedule's fragments are put under exactly that, a second cache with
   the same context hits them by region key, and fragments a forked probe
   read from the backing are not put again when it commits. *)
let test_fragcache_backing_keys () =
  let disk = Hashtbl.create 64 and puts = ref [] in
  let backing =
    {
      Fragcache.bk_find = Hashtbl.find_opt disk;
      bk_put =
        (fun k ~cost_ns:_ v ->
          puts := k :: !puts;
          Hashtbl.replace disk k v);
    }
  in
  let env = make_env Suite.gcd 2.5 in
  let cfg = env.Solution.sched_config and prog = env.Solution.program in
  let sol = Solution.initial env in
  let delay = Datapath.delay_model sol.Solution.dp
  and res = Datapath.resource_model sol.Solution.dp in
  let context = "gcd" in
  let fc = Fragcache.create ~context ~backing () in
  ignore (Scheduler.schedule ~frags:fc cfg prog ~delay ~res);
  let prefix = context ^ "\000" in
  let region_keys =
    List.map
      (fun k ->
        check_bool "put key starts with context ^ NUL" true
          (String.starts_with ~prefix k);
        String.sub k (String.length prefix) (String.length k - String.length prefix))
      !puts
  in
  check_int "one put per filed fragment" (Fragcache.entries fc) (List.length region_keys);
  List.iter
    (fun k -> check_bool "the rest is the in-memory key" true (Fragcache.find fc k <> None))
    region_keys;
  (match Scheduler.region_report cfg prog ~delay ~res with
  | (_, top) :: _ ->
    check_bool "the outermost region's digest was put" true (List.mem top region_keys)
  | [] -> Alcotest.fail "gcd has no cacheable region");
  let n = List.length !puts in
  let fc2 = Fragcache.create ~context ~backing () in
  List.iter
    (fun k -> check_bool "same context hits the backing" true (Fragcache.find fc2 k <> None))
    region_keys;
  let probe = Fragcache.fork (Fragcache.create ~context ~backing ()) in
  List.iter (fun k -> ignore (Fragcache.find probe k)) region_keys;
  Fragcache.commit probe;
  check_int "store-sourced entries are never put again" n (List.length !puts)

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

(* --- The schedule plan -------------------------------------------------------

   The reference below is the region-key encoder the scheduler used before
   it built a per-program plan: each key written in one pass from the
   region tree and the model closures.  Keys filed in stores by that
   encoder must keep hitting, so plan-built keys must equal its bytes. *)

module Ir = Impact_cdfg.Ir
module Keybuf = Impact_util.Keybuf

let rec has_loop = function
  | Ir.R_ops _ -> false
  | Ir.R_seq rs -> List.exists has_loop rs
  | Ir.R_if { then_r; else_r; _ } -> has_loop then_r || has_loop else_r
  | Ir.R_loop _ -> true

let rec merge_ops_children acc = function
  | [] -> List.rev acc
  | Ir.R_ops [] :: rest -> merge_ops_children acc rest
  | Ir.R_ops a :: Ir.R_ops b :: rest -> merge_ops_children acc (Ir.R_ops (a @ b) :: rest)
  | r :: rest -> merge_ops_children (r :: acc) rest

let rec flatten region =
  match region with
  | Ir.R_ops _ -> region
  | Ir.R_seq rs -> (
    match merge_ops_children [] (List.map flatten rs) with
    | [] -> Ir.R_ops []
    | [ r ] -> r
    | rs -> Ir.R_seq rs)
  | Ir.R_if _ when not (has_loop region) -> Ir.R_ops (Ir.region_nodes region)
  | Ir.R_if i -> Ir.R_if { i with then_r = flatten i.then_r; else_r = flatten i.else_r }
  | Ir.R_loop l -> Ir.R_loop { l with cond_r = flatten l.cond_r; body = flatten l.body }

let reference_config_fp (cfg : Scheduler.config) =
  Printf.sprintf "%h|%b|%b|%b|%d|%b|" cfg.Scheduler.clock_ns cfg.Scheduler.flatten_ifs
    cfg.Scheduler.fold_loop_cond cfg.Scheduler.parallel_regions
    cfg.Scheduler.max_product_states cfg.Scheduler.fds_leaves

let reference_digest ~g ~cfg_fp ~(delay : Impact_sched.Models.delay_model)
    ~(res : Impact_sched.Models.resource_model) ~tag region =
  let kb = Keybuf.create 512 in
  Keybuf.tag kb '\002';
  Keybuf.string kb cfg_fp;
  Keybuf.tag kb tag;
  let rec structure r =
    match r with
    | Ir.R_ops ids ->
      Keybuf.tag kb 'O';
      Keybuf.ints kb ids
    | Ir.R_seq rs ->
      Keybuf.tag kb 'S';
      Keybuf.list kb (fun _ r -> structure r) rs
    | Ir.R_if { cond_edge; then_r; else_r; sels } ->
      Keybuf.tag kb 'I';
      Keybuf.int kb cond_edge;
      structure then_r;
      structure else_r;
      Keybuf.ints kb sels
    | Ir.R_loop { loop; merges; cond_r; cond_edge; body; elps } ->
      Keybuf.tag kb 'L';
      Keybuf.int kb loop;
      Keybuf.ints kb merges;
      structure cond_r;
      Keybuf.int kb cond_edge;
      structure body;
      Keybuf.ints kb elps
  in
  structure region;
  List.iter
    (fun nid ->
      Keybuf.int kb nid;
      Keybuf.float kb (delay.op_latency_ns nid);
      Array.iteri
        (fun port _ -> Keybuf.float kb (delay.input_extra_ns nid ~port))
        (Graph.node g nid).Ir.inputs;
      Keybuf.float kb (delay.output_extra_ns nid);
      Keybuf.int kb (match res.fu_of nid with Some fu -> fu | None -> -1);
      Keybuf.tag kb (if res.pipelined nid then 'P' else 'p'))
    (Ir.region_nodes region);
  Keybuf.contents kb

(* Every cacheable region in the pre-plan report order, with its 'R' key,
   and the 'P' keys of its cacheable conditionals. *)
let reference_keys cfg (prog : Graph.program) ~delay ~res =
  let g = prog.Graph.graph and cfg_fp = reference_config_fp cfg in
  let top = if cfg.Scheduler.flatten_ifs then flatten prog.Graph.top else prog.Graph.top in
  let cacheable r = List.length (Ir.region_nodes r) >= 2 in
  let digest tag r = reference_digest ~g ~cfg_fp ~delay ~res ~tag r in
  let rec walk (report, standalone) region =
    let acc =
      if cacheable region then
        ( (Ir.region_nodes region, digest 'R' region) :: report,
          match region with Ir.R_if _ -> digest 'P' region :: standalone | _ -> standalone )
      else (report, standalone)
    in
    match region with
    | Ir.R_ops _ -> acc
    | Ir.R_seq rs -> List.fold_left walk acc rs
    | Ir.R_if { then_r; else_r; _ } -> walk (walk acc then_r) else_r
    | Ir.R_loop { cond_r; body; _ } -> walk (walk acc body) cond_r
  in
  let report, standalone = walk ([], []) top in
  (List.rev report, standalone)

(* Along random binding walks on all eight benchmarks: the plan-based
   schedule, with and without a fragment cache, equals the plan-free
   reference; the reported region keys equal the reference encoder's bytes;
   and every key the scheduler files in a fragment cache is one of them. *)
let test_plan_walks =
  QCheck.Test.make ~count:2 ~name:"plan = plan-free reference, keys unchanged (8 benchmarks)"
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
              let filed = ref [] in
              let backing =
                {
                  Fragcache.bk_find = (fun _ -> None);
                  bk_put = (fun full ~cost_ns:_ _ -> filed := full :: !filed);
                }
              in
              let fc = Fragcache.create ~context:"ctx" ~backing () in
              let reference = Stg.signature (Scheduler.schedule_reference cfg prog ~delay ~res) in
              let report, standalone = reference_keys cfg prog ~delay ~res in
              let known = List.map (fun k -> "ctx\000" ^ k) (List.map snd report @ standalone) in
              Stg.signature (Scheduler.schedule cfg prog ~delay ~res) = reference
              && Stg.signature (Scheduler.schedule ~frags:fc cfg prog ~delay ~res) = reference
              && Scheduler.region_report cfg prog ~delay ~res = report
              && !filed <> []
              && List.for_all (fun k -> List.mem k known) !filed)
            sols)
        Suite.all_extended)

(* A cacheable conditional inside a parallel product: the conditional
   (kept whole by the speculative flattening, since it holds a loop) and
   the loop after it both read only the first block's results, so they
   share one dependence level and the conditional is scheduled standalone
   and filed under its 'P' key.  No benchmark has this shape. *)
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
  let filed = ref [] in
  let backing =
    { Fragcache.bk_find = (fun _ -> None); bk_put = (fun full ~cost_ns:_ _ -> filed := full :: !filed) }
  in
  let fc = Fragcache.create ~context:"ctx" ~backing () in
  let reference = Stg.signature (Scheduler.schedule_reference cfg prog ~delay ~res) in
  let _, standalone = reference_keys cfg prog ~delay ~res in
  let sched () = Stg.signature (Scheduler.schedule ~frags:fc cfg prog ~delay ~res) in
  check_bool "plan = reference" true
    (Stg.signature (Scheduler.schedule cfg prog ~delay ~res) = reference);
  check_bool "cold spliced = reference" true (sched () = reference);
  check_bool "a 'P' key is filed" true
    (standalone <> [] && List.exists (fun k -> List.mem ("ctx\000" ^ k) !filed) standalone);
  with_sched_check "1" (fun () ->
      check_bool "cache-served = reference" true (sched () = reference))

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

(* --- The persistent frag tier through the driver --------------------------- *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter
      (fun name -> rm_rf (Filename.concat path name))
      (try Sys.readdir path with Sys_error _ -> [||]);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())

let test_frag_store_tier () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "impact-test-frags.%d" (Unix.getpid ()))
  in
  rm_rf dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let bench = Suite.gcd in
  let prog = Suite.program bench in
  let workload = bench.Suite.workload ~seed:41 ~passes:8 in
  let frag_tier st =
    match List.assoc_opt "frag" (Store.stats st).Store.st_tiers with
    | Some t -> t
    | None -> Alcotest.fail "no frag tier in store stats"
  in
  let store = Store.open_store ~dir () in
  let d1 =
    Driver.synthesize ~store prog ~workload ~objective:Solution.Minimize_power
      ~laxity:2.0 ()
  in
  let t1 = frag_tier store in
  check_bool "cold synthesis persists fragments" true (t1.Store.ts_writes > 0);
  check_bool "fragments are on disk" true (t1.Store.ts_entries > 0);
  ignore d1;
  (* A fresh handle at a shifted laxity: a genuinely new search, served by
     the persisted fragments — and bit-identical to a storeless run. *)
  let store2 = Store.open_store ~dir () in
  let d2 =
    Driver.synthesize ~store:store2 prog ~workload
      ~objective:Solution.Minimize_power ~laxity:2.6 ()
  in
  let t2 = frag_tier store2 in
  check_bool "shifted-laxity rerun hits the frag tier" true (t2.Store.ts_hits > 0);
  let d_ref =
    Driver.synthesize prog ~workload ~objective:Solution.Minimize_power
      ~laxity:2.6 ()
  in
  check_bool "store-served rerun is bit-identical to storeless" true
    (fingerprint d2.Driver.d_solution = fingerprint d_ref.Driver.d_solution)

let () =
  Alcotest.run "impact_sched_incremental"
    [
      ( "identity",
        [
          Alcotest.test_case "incremental = full on six-benchmark walks" `Quick
            test_walks_identical;
          QCheck_alcotest.to_alcotest test_walk_property;
        ] );
      ( "footprint",
        [
          Alcotest.test_case "constructor mapping" `Quick test_footprint_mapping;
          Alcotest.test_case "changed regions stay inside the footprint" `Quick
            test_footprint_classification;
        ] );
      ( "splice",
        [ Alcotest.test_case "splice checks" `Quick test_splice_checks ] );
      ( "fragcache",
        [
          Alcotest.test_case "roundtrip and isolation" `Quick
            test_fragcache_roundtrip;
          Alcotest.test_case "fork/commit" `Quick test_fragcache_fork_commit;
          Alcotest.test_case "persistent backing" `Quick test_fragcache_backing;
          Alcotest.test_case "each fragment persisted once" `Quick
            test_fragcache_write_once;
          Alcotest.test_case "backing key is context ^ NUL ^ region key" `Quick
            test_fragcache_backing_keys;
          Alcotest.test_case "Heavy reschedules splice every region" `Quick
            test_heavy_resched_splices;
        ] );
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
      ( "store",
        [ Alcotest.test_case "frag tier via driver" `Quick test_frag_store_tier ] );
    ]
