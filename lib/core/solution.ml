module Graph = Impact_cdfg.Graph
module Scheduler = Impact_sched.Scheduler
module Stg = Impact_sched.Stg
module Binding = Impact_rtl.Binding
module Datapath = Impact_rtl.Datapath
module Muxnet = Impact_rtl.Muxnet
module Lifetime = Impact_rtl.Lifetime
module Estimate = Impact_power.Estimate
module Netstats = Impact_power.Netstats
module Breakdown = Impact_power.Breakdown
module Vdd = Impact_power.Vdd
module Sim = Impact_sim.Sim
module Shardtbl = Impact_util.Shardtbl
module Keybuf = Impact_util.Keybuf

type objective = Minimize_area | Minimize_power

let objective_name = function Minimize_area -> "area" | Minimize_power -> "power"

type env = {
  program : Graph.program;
  library : Impact_modlib.Module_library.t;
  sched_config : Scheduler.config;
  est_ctx : Estimate.ctx;
  enc_budget : float;
  objective : objective;
  area_ref : float;
}

(* A feasible solution's nominal estimate lives in its build entry's slot,
   filled by the first pricing that needs it or by the first read. *)
type pricing =
  | Pruned of float  (* infeasible: never estimated; the critical path *)
  | Nominal of {
      slot : (Estimate.t * Estimate.ledger) option Atomic.t;
      ctx : Estimate.ctx;
    }

type t = {
  binding : Binding.t;
  dp : Datapath.t;
  stg : Stg.t;
  restructured : Datapath.port list;
  enc : float;
  vdd : float;
  area : float;
  cost : float;
  pricing : pricing;
}

(* --- Evaluation metrics ---------------------------------------------------- *)

(* Plain counters: one [Search.optimize] creates each value and updates it
   on its own domain only. *)
type metrics = {
  mutable m_cache_hits : int;
  mutable m_pruned : int;
  mutable m_rebuilt : int;
  mutable m_delta : int;
  mutable m_estimated : int;
}

let create_metrics () =
  { m_cache_hits = 0; m_pruned = 0; m_rebuilt = 0; m_delta = 0; m_estimated = 0 }

let metrics_counts m = (m.m_cache_hits, m.m_pruned, m.m_rebuilt, m.m_delta)
let metrics_estimated m = m.m_estimated

(* --- Legality -------------------------------------------------------------- *)

let legal_against lt b =
  List.for_all
    (fun reg ->
      List.length (Binding.reg_values b reg) + List.length (Binding.reg_input_names b reg)
      <= 1
      || Lifetime.regs_can_share lt b reg reg)
    (Binding.reg_ids b)

let find_network dp port =
  let rec scan i =
    if i >= Datapath.network_count dp then None
    else if (Datapath.network dp i).Datapath.net_port = port then Some i
    else scan (i + 1)
  in
  scan 0

let apply_restructuring env dp ports =
  let run = Estimate.run env.est_ctx in
  let value_sw = Estimate.value_switching env.est_ctx in
  List.filter
    (fun port ->
      match find_network dp port with
      | None -> false
      | Some idx ->
        let net = Datapath.network dp idx in
        if Array.length net.Datapath.net_keys < 3 then false
        else begin
          let stats = Netstats.network_stats ~value_sw run dp idx in
          Muxnet.restructure net.Datapath.net ~ap:(fun i ->
              (stats.Netstats.a.(i), stats.Netstats.p.(i)));
          true
        end)
    ports

(* --- Environment-independent build ----------------------------------------- *)

(* Everything below is a function of (program, sched_config, est_ctx) and the
   candidate (binding, restructured) only — never of the ENC budget or the
   objective.  That is what lets one signature cache serve a whole laxity
   sweep: per-env pricing is cheap arithmetic on these figures. *)
type built = {
  bt_dp : Datapath.t;
  bt_stg : Stg.t;
  bt_restructured : Datapath.port list;
  bt_enc : float;
  bt_critical : float;
  bt_legal : bool;
  bt_area : float;
  bt_nominal : (Estimate.t * Estimate.ledger) option Atomic.t;
      (* the full estimate at nominal supply, computed on the first
         power-objective pricing or the first read of a feasible solution's
         estimate, so infeasible candidates and area searches never pay for
         it *)
}

let build env ~binding ~restructured ~reuse_stg =
  let dp = Datapath.build binding in
  let restructured = apply_restructuring env dp restructured in
  let stg =
    match reuse_stg with
    | Some stg -> stg
    | None ->
      Scheduler.schedule env.sched_config env.program
        ~delay:(Datapath.delay_model dp) ~res:(Datapath.resource_model dp)
  in
  let enc = Estimate.stg_enc env.est_ctx stg in
  let critical = Stg.critical_path_ns stg in
  let legal = legal_against (Estimate.lifetime env.est_ctx stg) binding in
  let n_transitions =
    Array.fold_left (fun acc l -> acc + List.length l) 0 stg.Stg.succs
  in
  let area =
    Datapath.total_area dp ~stg_states:(Stg.state_count stg)
      ~stg_transitions:n_transitions
  in
  {
    bt_dp = dp;
    bt_stg = stg;
    bt_restructured = restructured;
    bt_enc = enc;
    bt_critical = critical;
    bt_legal = legal;
    bt_area = area;
    bt_nominal = Atomic.make None;
  }

(* --- Per-environment pricing ----------------------------------------------- *)

(* The nominal estimate, from the slot or computed into it.  [delta] is the
   pricing caller's predecessor ledger and move footprint, never part of a
   cache entry: when the schedule keeps the predecessor's shape, the nominal
   estimate re-prices only the footprint.  Two domains may race on the
   slot; they compute the same value. *)
let nominal ?metrics ?delta ctx slot ~stg ~dp =
  match Atomic.get slot with
  | Some pair -> pair
  | None ->
    Option.iter (fun m -> m.m_estimated <- m.m_estimated + 1) metrics;
    let pair =
      match delta with
      | Some (prev, footprint) when Estimate.can_reprice ctx prev ~stg ->
        Option.iter (fun m -> m.m_delta <- m.m_delta + 1) metrics;
        Estimate.reprice ctx ~prev ~footprint ~stg ~dp ()
      | _ -> Estimate.estimate_ledger ctx ~stg ~dp ()
    in
    Atomic.set slot (Some pair);
    pair

(* The breakdown is at nominal supply; only the total scales with Vdd —
   exactly what [Estimate.estimate ~vdd] would have produced. *)
let at_vdd (nominal : Estimate.t) vdd =
  {
    nominal with
    Estimate.est_power =
      Breakdown.total nominal.Estimate.est_breakdown *. Vdd.power_factor vdd;
    est_vdd = vdd;
  }

(* A forced read prices from scratch: capturing the predecessor ledger for
   a later delta would keep every predecessor's ledger alive. *)
let est t =
  match t.pricing with
  | Pruned critical ->
    {
      Estimate.est_enc = t.enc;
      est_breakdown = Breakdown.zero;
      est_power = infinity;
      est_vdd = t.vdd;
      est_critical_ns = critical;
    }
  | Nominal { slot; ctx } -> at_vdd (fst (nominal ctx slot ~stg:t.stg ~dp:t.dp)) t.vdd

let ledger t =
  match t.pricing with
  | Pruned _ -> None
  | Nominal { slot; ctx } -> Some (snd (nominal ctx slot ~stg:t.stg ~dp:t.dp))

let priced_ledger t =
  match t.pricing with
  | Pruned _ -> None
  | Nominal { slot; _ } -> Option.map snd (Atomic.get slot)

let price ?metrics ?delta env bt =
  let clock = env.sched_config.Scheduler.clock_ns in
  let feasible =
    bt.bt_enc <= env.enc_budget +. 1e-6
    && bt.bt_critical <= clock +. 1e-6
    && bt.bt_legal
  in
  (* Vdd scaling uses the unused ENC budget only: the clock period is a
     system constraint, so within-state slack is not traded for voltage
     (this makes the laxity-1.0 area-optimized design sit at 1.0 normalized
     power, matching the paper's plots).  Shorter schedules — including the
     cycle savings from multiplexer restructuring — translate directly into
     a lower supply. *)
  let stretch =
    if bt.bt_enc <= 0. then 1. else Float.max 1. (env.enc_budget /. bt.bt_enc)
  in
  let vdd = Vdd.scale_for_stretch stretch in
  let pricing, cost =
    if not feasible then begin
      (* Feasibility pre-check failed: skip the full estimate entirely. *)
      Option.iter (fun m -> m.m_pruned <- m.m_pruned + 1) metrics;
      (Pruned bt.bt_critical, infinity)
    end
    else
      let pricing = Nominal { slot = bt.bt_nominal; ctx = env.est_ctx } in
      match env.objective with
      | Minimize_area ->
        (* The cost never reads power: the estimate waits for a reader. *)
        (pricing, bt.bt_area)
      | Minimize_power ->
        let nominal, _ =
          nominal ?metrics ?delta env.est_ctx bt.bt_nominal ~stg:bt.bt_stg ~dp:bt.bt_dp
        in
        (* Power first, with a small area tie-break (a tenth of the relative
           area) so equal-power alternatives prefer the smaller datapath —
           this is what keeps the paper's power-optimized designs within
           ~30% area of the area-optimized ones. *)
        ( pricing,
          (at_vdd nominal vdd).Estimate.est_power
          *. (1. +. (0.1 *. bt.bt_area /. Float.max 1. env.area_ref)) )
  in
  {
    binding = Datapath.binding bt.bt_dp;
    dp = bt.bt_dp;
    stg = bt.bt_stg;
    restructured = bt.bt_restructured;
    enc = bt.bt_enc;
    vdd;
    area = bt.bt_area;
    cost;
    pricing;
  }

(* --- Signature cache ------------------------------------------------------- *)

type cache = { cs_shared : (string, built) Shardtbl.t }

let create_cache ?frags:_ () = { cs_shared = Shardtbl.create ~equal:String.equal 256 }
let cache_entries c = Shardtbl.length c.cs_shared

let cache_priced c =
  let n = ref 0 in
  Shardtbl.iter (fun _ bt -> if Option.is_some (Atomic.get bt.bt_nominal) then incr n) c.cs_shared;
  !n

let compare_anchor (t1, ids1, n1) (t2, ids2, n2) =
  match Char.compare t1 t2 with
  | 0 -> (
    match List.compare Int.compare ids1 ids2 with 0 -> String.compare n1 n2 | c -> c)
  | c -> c

(* The canonical key of (binding, restructured): the binding's own key
   ({!Binding.add_key}) followed by the restructured ports, each anchored by
   the smallest operation / value id (or input name) of the unit or register
   it feeds, since those ids are history-dependent too. *)
let signature ~binding ~restructured =
  let b = binding in
  (* (tag, ids, name); the tags are disjoint from {!Binding.add_key}'s. *)
  let anchor = function
    | Datapath.P_fu_input (fu, port) -> (
      match Binding.fu_ops b fu with
      | op :: _ -> ('f', [ op; port ], "")
      | [] | (exception Invalid_argument _) -> ('u', [ fu; port ], ""))
    | Datapath.P_reg_write reg -> (
      match (Binding.reg_values b reg, Binding.reg_input_names b reg) with
      | v :: _, _ -> ('r', [ v ], "")
      | [], (_ :: _ as names) -> ('i', [], List.hd (List.sort String.compare names))
      | [], [] | (exception Invalid_argument _) -> ('v', [ reg ], ""))
  in
  let kb = Keybuf.create 512 in
  Binding.add_key kb b;
  List.iter
    (fun (tag, ids, name) ->
      Keybuf.tag kb tag;
      Keybuf.ints kb ids;
      Keybuf.string kb name)
    (List.sort_uniq compare_anchor (List.map anchor restructured));
  Keybuf.contents kb

(* --- Rebuild --------------------------------------------------------------- *)

let rebuild ?cache ?metrics ?delta env ~binding ~restructured ~reuse_stg =
  let fresh () =
    Option.iter (fun m -> m.m_rebuilt <- m.m_rebuilt + 1) metrics;
    build env ~binding ~restructured ~reuse_stg
  in
  let bt =
    match (cache, reuse_stg) with
    | None, _ | _, Some _ ->
      (* A supplied schedule is move-specific state, not a function of the
         signature — never cache through it. *)
      fresh ()
    | Some c, None -> (
      let key = signature ~binding ~restructured in
      let hash = Shardtbl.hash key in
      match Shardtbl.find_opt ~hash c.cs_shared key with
      | Some bt ->
        Option.iter (fun m -> m.m_cache_hits <- m.m_cache_hits + 1) metrics;
        bt
      | None ->
        (* Insert-or-get: when two domains built the same signature
           concurrently, everyone settles on the entry that won the race
           so later pricing is shared. *)
        Shardtbl.add_if_absent ~hash c.cs_shared key (fresh ()))
  in
  price ?metrics ?delta env bt

let initial ?cache ?metrics env =
  let binding = Binding.parallel env.program.Graph.graph env.library in
  rebuild ?cache ?metrics env ~binding ~restructured:[] ~reuse_stg:None

let describe t =
  Printf.sprintf
    "fus=%d regs=%d nets=%d states=%d enc=%.2f vdd=%.2f area=%.0f power=%.4f cost=%s"
    (Binding.fu_count t.binding) (Binding.reg_count t.binding)
    (Datapath.network_count t.dp) (Stg.state_count t.stg) t.enc t.vdd t.area
    (est t).Estimate.est_power
    (if t.cost = infinity then "inf" else Printf.sprintf "%.4f" t.cost)

let diagnostics env t =
  Impact_verify.Verify.run_all
    (Impact_verify.Verify.input ~name:env.program.Graph.prog_name
       ~program:env.program ~stg:t.stg ~dp:t.dp
       ~run:(Estimate.run env.est_ctx) ?ledger:(ledger t) ())
